// Directories with the commit as their one writer (DESIGN.md §6,
// "Directory maintenance"), driven end to end through OPAL sessions:
// aborted and uncommitted work never reaches a directory, in-place key
// changes do, and selectWhere: answers what select: answers — including
// its access record for validation. Ends with a seeded differential run
// over random three-session scripts.

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "executor/executor.h"
#include "index/directory.h"
#include "txn/session.h"

namespace gemstone::index {
namespace {

using executor::Executor;

class DirectoryMaintenanceTest : public ::testing::Test {
 protected:
  DirectoryMaintenanceTest() {
    a_ = executor_.Login().ValueOrDie();
    b_ = executor_.Login().ValueOrDie();
    c_ = executor_.Login().ValueOrDie();
    Run(a_, "Object subclass: 'Maker' instVarNames: #('city')");
    Run(a_, "Object subclass: 'Part' instVarNames: #('id' 'kind' 'maker')");
    // Four bolts in Parts, each made in Portland by a maker of its own,
    // plus a committed bolt outside the set.
    Run(a_,
        "Parts := Set new. 1 to: 4 do: [:i | | p m | m := Maker new. "
        "m instVarNamed: 'city' put: 'Portland'. p := Part new. "
        "p instVarNamed: 'kind' put: 'bolt'. "
        "p instVarNamed: 'maker' put: m. Parts add: p]. "
        "Extra := Part new. Extra instVarNamed: 'kind' put: 'bolt'. "
        "Z := Part new. Z instVarNamed: 'kind' put: 'bolt'. "
        "System commitTransaction");
    // B and C start after that commit, as A does.
    Run(b_, "System abortTransaction");
    Run(c_, "System abortTransaction");
  }

  Value Run(SessionId session, const std::string& source) {
    auto result = executor_.Execute(session, source);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n  in: "
                             << source;
    return result.ok() ? std::move(result).value() : Value::Nil();
  }

  void CreateDirectory(const std::string& path) {
    ASSERT_EQ(Run(a_, "System createDirectoryOn: Parts path: " + path),
              Value::Boolean(true));
  }

  /// The size of `Parts <selector> [:p | p!<path> = '<key>']`.
  std::int64_t Count(SessionId session, const std::string& selector,
                     const std::string& path, const std::string& key) {
    return Run(session, "(Parts " + selector + " [:p | p!" + path + " = '" +
                            key + "']) size")
        .integer();
  }

  /// Count by select: and by selectWhere:, which must agree.
  std::int64_t Bolts(SessionId session) {
    const std::int64_t scanned = Count(session, "select:", "kind", "bolt");
    EXPECT_EQ(Count(session, "selectWhere:", "kind", "bolt"), scanned);
    return scanned;
  }

  void UnrelatedCommit() {
    Run(b_, "Other := Part new. System commitTransaction");
  }

  Executor executor_;
  SessionId a_ = 0, b_ = 0, c_ = 0;
};

TEST_F(DirectoryMaintenanceTest, AbortedAddLeavesNoPhantom) {
  CreateDirectory("#('kind')");
  Run(a_, "Parts add: Extra. System abortTransaction");
  UnrelatedCommit();
  EXPECT_EQ(Bolts(a_), 4);
  EXPECT_EQ(Bolts(b_), 4);
}

TEST_F(DirectoryMaintenanceTest, InPlaceKeyChangeOnOneStepPath) {
  CreateDirectory("#('kind')");
  Run(a_,
      "(Parts detect: [:p | true]) instVarNamed: 'kind' put: 'nut'. "
      "System commitTransaction");
  EXPECT_EQ(Count(a_, "selectWhere:", "kind", "nut"), 1);
  EXPECT_EQ(Count(a_, "select:", "kind", "nut"), 1);
  EXPECT_EQ(Bolts(b_), 3);
}

TEST_F(DirectoryMaintenanceTest, InPlaceChangeThroughAnIntermediate) {
  CreateDirectory("#('maker' 'city')");
  // The maker, not the member, changes: the posting's key path passed
  // through it.
  Run(a_,
      "((Parts detect: [:p | true]) instVarNamed: 'maker') "
      "instVarNamed: 'city' put: 'Salem'. System commitTransaction");
  EXPECT_EQ(Count(b_, "selectWhere:", "maker!city", "Salem"), 1);
  EXPECT_EQ(Count(b_, "select:", "maker!city", "Salem"), 1);
  EXPECT_EQ(Count(b_, "selectWhere:", "maker!city", "Portland"), 3);
  // The member moves to another maker; the old one no longer counts.
  Run(a_,
      "| m | m := Maker new. m instVarNamed: 'city' put: 'Eugene'. "
      "(Parts detect: [:p | (p!maker!city) = 'Salem']) "
      "instVarNamed: 'maker' put: m. System commitTransaction");
  EXPECT_EQ(Count(b_, "selectWhere:", "maker!city", "Eugene"), 1);
  EXPECT_EQ(Count(b_, "selectWhere:", "maker!city", "Salem"), 0);
  EXPECT_EQ(Count(b_, "select:", "maker!city", "Salem"), 0);
}

TEST_F(DirectoryMaintenanceTest, OtherSessionsUncommittedAddIsInvisible) {
  CreateDirectory("#('kind')");
  Run(c_, "Parts add: Z");
  UnrelatedCommit();
  EXPECT_EQ(Bolts(b_), 4);
  // The adding session sees its own add.
  EXPECT_EQ(Bolts(c_), 5);
  Run(c_, "System abortTransaction");
  UnrelatedCommit();
  EXPECT_EQ(Bolts(b_), 4);
  EXPECT_EQ(Bolts(c_), 4);
}

TEST_F(DirectoryMaintenanceTest, OwnUncommittedAddIsSeen) {
  CreateDirectory("#('kind')");
  Run(a_, "Parts add: Extra");
  EXPECT_EQ(Bolts(a_), 5);
  Run(a_, "System commitTransaction");
  EXPECT_EQ(Bolts(b_), 5);
}

TEST_F(DirectoryMaintenanceTest, RequestPinnedBeforeCreationAnswersAsSelect) {
  txn::SnapshotPin pin(executor_.session(b_),
                       executor_.transactions().SafeTime());
  ASSERT_TRUE(pin.pinned());
  Run(a_, "Parts add: Extra. System commitTransaction");
  CreateDirectory("#('kind')");
  // B reads at its pin, before the fill: it scans, and sees four.
  EXPECT_EQ(Bolts(b_), 4);
}

TEST_F(DirectoryMaintenanceTest, ProbeJoinsTheReadSet) {
  CreateDirectory("#('kind')");
  Run(a_, "System abortTransaction");  // forget the creation's read
  EXPECT_EQ(Count(a_, "selectWhere:", "kind", "bolt"), 4);
  Run(b_, "Parts add: Extra. System commitTransaction");
  EXPECT_EQ(executor_.session(a_)->Commit().code(),
            StatusCode::kTransactionConflict);
}

// --- Differential: random three-session scripts ------------------------------

// Parts starts as the first six of a pool of twelve parts with
// power-of-two ids (a sum of ids names a subset) and three makers.
class DirectoryDifferentialTest : public DirectoryMaintenanceTest {
 protected:
  static constexpr int kParts = 12;
  static constexpr int kKeys = 3;

  void SetUp() override {
    Run(a_,
        "Parts := Set new. Makers := Array new. "
        "1 to: 3 do: [:i | | m | m := Maker new. "
        "m instVarNamed: 'city' put: 'c' , (i - 1) printString. "
        "Makers add: m]. "
        "Pool := Array new. 1 to: 12 do: [:i | | p id | p := Part new. "
        "id := 1. 1 to: i - 1 do: [:j | id := id * 2]. "
        "p instVarNamed: 'id' put: id. "
        "p instVarNamed: 'kind' put: 'k' , (i \\\\ 3) printString. "
        "p instVarNamed: 'maker' put: (Makers at: i \\\\ 3 + 1). "
        "i <= 6 ifTrue: [Parts add: p]. Pool add: p]. "
        "System commitTransaction");
  }

  /// The sum of ids `Parts <selector>` answers for `path` = `key`.
  std::int64_t Fingerprint(SessionId session, const std::string& selector,
                           const std::string& path, const std::string& key) {
    return Run(session, "(Parts " + selector + " [:p | p!" + path + " = '" +
                            key + "']) inject: 0 into: [:a :p | a + (p!id)]")
        .integer();
  }

  std::string RandomStep(std::mt19937& rng) {
    auto pick = [&](int n) {
      return std::to_string(std::uniform_int_distribution<int>(0, n - 1)(rng));
    };
    const std::string part = "(Pool at: " + pick(kParts) + " + 1)";
    const std::string key = pick(kKeys);
    const std::string maker = "(Makers at: " + pick(kKeys) + " + 1)";
    switch (std::uniform_int_distribution<int>(0, 6)(rng)) {
      case 0: return "Parts add: " + part;
      case 1: return "Parts remove: " + part + " ifAbsent: [nil]";
      case 2: return part + " instVarNamed: 'kind' put: 'k" + key + "'";
      case 3: return part + " instVarNamed: 'maker' put: " + maker;
      case 4: return maker + " instVarNamed: 'city' put: 'c" + key + "'";
      case 5: return "System abortTransaction";
      default: return "System commitTransaction";
    }
  }
};

TEST_F(DirectoryDifferentialTest,
       SelectWhereEqualsSelectAndPostingsEqualHistory) {
  CreateDirectory("#('kind')");
  CreateDirectory("#('maker' 'city')");
  const SessionId sessions[] = {a_, b_, c_};
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    std::mt19937 rng(seed);
    for (int step = 0; step < 60; ++step) {
      const SessionId s = sessions[rng() % 3];
      const std::string source = RandomStep(rng);
      Run(s, source);
      const std::string key = std::to_string(step % kKeys);
      for (SessionId reader : sessions) {
        EXPECT_EQ(Fingerprint(reader, "selectWhere:", "kind", "k" + key),
                  Fingerprint(reader, "select:", "kind", "k" + key))
            << "seed " << seed << " step " << step << ": " << source;
        EXPECT_EQ(
            Fingerprint(reader, "selectWhere:", "maker!city", "c" + key),
            Fingerprint(reader, "select:", "maker!city", "c" + key))
            << "seed " << seed << " step " << step << ": " << source;
      }
    }
  }

  // Every posting, at every commit time since the fill, against the
  // committed history read through a dialed session.
  const Oid parts = Run(a_, "Parts").ref();
  ObjectMemory& memory = executor_.memory();
  const SymbolId kind = memory.symbols().Intern("kind");
  const SymbolId maker = memory.symbols().Intern("maker");
  const SymbolId city = memory.symbols().Intern("city");
  Directory* by_kind = executor_.directories().Find(parts, {kind});
  Directory* by_city = executor_.directories().Find(parts, {maker, city});
  ASSERT_NE(by_kind, nullptr);
  ASSERT_NE(by_city, nullptr);
  txn::Session* reader = executor_.session(executor_.Login().ValueOrDie());
  for (TxnTime t = by_city->filled_at(); t <= executor_.transactions().Now();
       ++t) {
    reader->SetTimeDial(t);
    std::map<std::string, std::vector<Oid>> kinds, cities;
    for (const auto& [name, member] : reader->ListNamed(parts).ValueOrDie()) {
      const Oid m = member.ref();
      kinds[reader->ReadNamedAt(m, kind, t).ValueOrDie().string()].push_back(m);
      const Oid made_by = reader->ReadNamedAt(m, maker, t).ValueOrDie().ref();
      cities[reader->ReadNamedAt(made_by, city, t).ValueOrDie().string()]
          .push_back(m);
    }
    auto check = [&](Directory* directory, const std::string& key,
                     std::vector<Oid> want) {
      std::vector<Oid> posted = directory->Lookup(Value::String(key), t);
      std::sort(posted.begin(), posted.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(posted, want) << "key " << key << " at " << t;
    };
    for (int k = 0; k < kKeys; ++k) {
      const std::string n = std::to_string(k);
      check(by_kind, "k" + n, kinds["k" + n]);
      check(by_city, "c" + n, cities["c" + n]);
    }
  }
}

}  // namespace
}  // namespace gemstone::index
