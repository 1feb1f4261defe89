#include "index/directory.h"

#include <gtest/gtest.h>

namespace gemstone::index {
namespace {

class DirectoryTest : public ::testing::Test {
 protected:
  DirectoryTest()
      : dir_manager_(&memory_),
        txns_(&memory_, nullptr, &dir_manager_),
        session_(&txns_, 1) {
    EXPECT_TRUE(session_.Begin().ok());
    dept_sym_ = memory_.symbols().Intern("dept");
    salary_sym_ = memory_.symbols().Intern("salary");
  }

  // Creates an employee object committed to the store.
  Oid MakeEmployee(std::string dept, std::int64_t salary) {
    Oid oid = session_.Create(memory_.kernel().object).ValueOrDie();
    EXPECT_TRUE(
        session_.WriteNamed(oid, dept_sym_, Value::String(dept)).ok());
    EXPECT_TRUE(
        session_.WriteNamed(oid, salary_sym_, Value::Integer(salary)).ok());
    return oid;
  }

  void Commit() {
    ASSERT_TRUE(session_.Commit().ok());
    ASSERT_TRUE(session_.Begin().ok());
  }

  ObjectMemory memory_;
  DirectoryManager dir_manager_;  // the publish listener of txns_
  txn::TransactionManager txns_;
  txn::Session session_;
  SymbolId dept_sym_, salary_sym_;
};

TEST_F(DirectoryTest, EqualityLookup) {
  Directory dir(Oid(1), {dept_sym_});
  dir.Add(1, Value::String("Sales"), Oid(10), 1);
  dir.Add(2, Value::String("Sales"), Oid(11), 1);
  dir.Add(3, Value::String("Research"), Oid(12), 1);

  auto sales = dir.Lookup(Value::String("Sales"), kTimeNow);
  EXPECT_EQ(sales.size(), 2u);
  EXPECT_EQ(dir.Lookup(Value::String("Research"), kTimeNow).size(), 1u);
  EXPECT_EQ(dir.Lookup(Value::String("Nowhere"), kTimeNow).size(), 0u);
}

TEST_F(DirectoryTest, TemporalPostings) {
  Directory dir(Oid(1), {dept_sym_});
  dir.Add(1, Value::String("Sales"), Oid(10), 2);
  dir.Remove(1, 8);  // member departs at t=8
  EXPECT_EQ(dir.Lookup(Value::String("Sales"), 1).size(), 0u);
  EXPECT_EQ(dir.Lookup(Value::String("Sales"), 5).size(), 1u);
  EXPECT_EQ(dir.Lookup(Value::String("Sales"), 8).size(), 0u);
  EXPECT_EQ(dir.Lookup(Value::String("Sales"), kTimeNow - 1).size(), 0u);
  // The posting is retained (history), just closed.
  EXPECT_EQ(dir.posting_count(), 1u);
}

TEST_F(DirectoryTest, DiscriminatorChangeAppearsOnTwoBranches) {
  // §6: "its object may need to appear along two branches of the
  // directory" — the member has different keys in different states.
  Directory dir(Oid(1), {dept_sym_});
  dir.Add(1, Value::String("Sales"), Oid(10), 2);
  dir.Add(1, Value::String("Research"), Oid(10), 6);  // transfer at t=6
  EXPECT_EQ(dir.Lookup(Value::String("Sales"), 4).size(), 1u);
  EXPECT_EQ(dir.Lookup(Value::String("Research"), 4).size(), 0u);
  EXPECT_EQ(dir.Lookup(Value::String("Sales"), 7).size(), 0u);
  EXPECT_EQ(dir.Lookup(Value::String("Research"), 7).size(), 1u);
  EXPECT_EQ(dir.posting_count(), 2u);
}

TEST_F(DirectoryTest, RangeLookupOrdersNumbersCorrectly) {
  Directory dir(Oid(1), {salary_sym_});
  SymbolId slot = 0;
  for (std::int64_t s : {900, 1000, 5000, 10000, 20000, -50}) {
    dir.Add(++slot, Value::Integer(s),
            Oid(static_cast<std::uint64_t>(1000 + s + 60)), 1);
  }
  // Lexicographic "10000" < "900" would be wrong; the encoding is
  // order-preserving.
  auto mid = dir.LookupRange(Value::Integer(950), Value::Integer(10000),
                             kTimeNow);
  EXPECT_EQ(mid.size(), 3u);  // 1000, 5000, 10000
  auto with_negative =
      dir.LookupRange(Value::Integer(-100), Value::Integer(0), kTimeNow);
  EXPECT_EQ(with_negative.size(), 1u);  // -50
}

TEST_F(DirectoryTest, ManagerCreatePopulatesFromCollection) {
  Oid set = session_.Create(memory_.kernel().set).ValueOrDie();
  std::vector<Oid> emps;
  for (int i = 0; i < 6; ++i) {
    Oid e = MakeEmployee(i % 2 == 0 ? "Sales" : "Research", 1000 * i);
    emps.push_back(e);
    SymbolId alias = memory_.symbols().GenerateAlias();
    ASSERT_TRUE(session_.WriteNamed(set, alias, Value::Ref(e)).ok());
  }
  Commit();

  ASSERT_TRUE(dir_manager_.CreateDirectory(&session_, set, {dept_sym_}).ok());
  Directory* dir = dir_manager_.Find(set, {dept_sym_});
  ASSERT_NE(dir, nullptr);
  EXPECT_EQ(dir->Lookup(Value::String("Sales"), kTimeNow).size(), 3u);
  // Duplicate creation rejected.
  EXPECT_EQ(dir_manager_.CreateDirectory(&session_, set, {dept_sym_}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(dir_manager_.CreateDirectory(&session_, set, {}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DirectoryTest, ManagerMaintainsOnAddRemove) {
  Oid set = session_.Create(memory_.kernel().set).ValueOrDie();
  Commit();
  ASSERT_TRUE(dir_manager_.CreateDirectory(&session_, set, {dept_sym_}).ok());

  // The commit is the directory's one writer: nothing posts until the
  // collection write publishes.
  Oid e = MakeEmployee("Sales", 1234);
  SymbolId alias = memory_.symbols().GenerateAlias();
  ASSERT_TRUE(session_.WriteNamed(set, alias, Value::Ref(e)).ok());
  Directory* dir = dir_manager_.Find(set, {dept_sym_});
  EXPECT_EQ(dir->Lookup(Value::String("Sales"), kTimeNow).size(), 0u);
  Commit();
  EXPECT_EQ(dir->Lookup(Value::String("Sales"), txns_.Now()).size(), 1u);

  ASSERT_TRUE(session_.WriteNamed(set, alias, Value::Nil()).ok());
  Commit();
  EXPECT_EQ(dir->Lookup(Value::String("Sales"), txns_.Now()).size(), 0u);
}

TEST_F(DirectoryTest, CreateUnderAPinFillsFromTheLatestState) {
  Oid set = session_.Create(memory_.kernel().set).ValueOrDie();
  Oid e = MakeEmployee("Sales", 1000);
  ASSERT_TRUE(session_
                  .WriteNamed(set, memory_.symbols().GenerateAlias(),
                              Value::Ref(e))
                  .ok());
  Commit();

  // The session is pinned, and then another session commits a new member.
  txn::SnapshotPin pin(&session_, txns_.SafeTime());
  ASSERT_TRUE(pin.pinned());
  txn::Session other(&txns_, 2);
  ASSERT_TRUE(other.Begin().ok());
  Oid late = other.Create(memory_.kernel().object).ValueOrDie();
  ASSERT_TRUE(other.WriteNamed(late, dept_sym_, Value::String("Sales")).ok());
  ASSERT_TRUE(other
                  .WriteNamed(set, memory_.symbols().GenerateAlias(),
                              Value::Ref(late))
                  .ok());
  ASSERT_TRUE(other.Commit().ok());

  // Creation fills from the latest committed state, not the pin: the
  // late member is in it. The pin stays, and the request keeps reading
  // at it (a probe there, before the fill, would scan instead).
  const TxnTime pinned_at = session_.EffectiveTime();
  ASSERT_TRUE(dir_manager_.CreateDirectory(&session_, set, {dept_sym_}).ok());
  EXPECT_TRUE(session_.transaction()->pinned());
  EXPECT_EQ(session_.EffectiveTime(), pinned_at);
  Directory* dir = dir_manager_.Find(set, {dept_sym_});
  ASSERT_NE(dir, nullptr);
  EXPECT_EQ(dir->Lookup(Value::String("Sales"), txns_.Now()).size(), 2u);
}

TEST_F(DirectoryTest, NestedDiscriminatorPath) {
  // Index on employee!address!city — a nested element (§6's headache).
  SymbolId address = memory_.symbols().Intern("address");
  SymbolId city = memory_.symbols().Intern("city");
  Oid set = session_.Create(memory_.kernel().set).ValueOrDie();
  Oid emp = session_.Create(memory_.kernel().object).ValueOrDie();
  Oid addr = session_.Create(memory_.kernel().object).ValueOrDie();
  ASSERT_TRUE(
      session_.WriteNamed(addr, city, Value::String("Portland")).ok());
  ASSERT_TRUE(session_.WriteNamed(emp, address, Value::Ref(addr)).ok());
  ASSERT_TRUE(session_
                  .WriteNamed(set, memory_.symbols().GenerateAlias(),
                              Value::Ref(emp))
                  .ok());
  Commit();

  ASSERT_TRUE(
      dir_manager_.CreateDirectory(&session_, set, {address, city}).ok());
  Directory* dir = dir_manager_.Find(set, {address, city});
  EXPECT_EQ(dir->Lookup(Value::String("Portland"), kTimeNow).size(), 1u);
  EXPECT_EQ(dir->Lookup(Value::String("Seattle"), kTimeNow).size(), 0u);
}

TEST_F(DirectoryTest, StatsCountWork) {
  Directory dir(Oid(1), {dept_sym_});
  dir.Add(1, Value::String("a"), Oid(1), 1);
  (void)dir.Lookup(Value::String("a"), kTimeNow);
  (void)dir.Lookup(Value::String("b"), kTimeNow);
  DirectoryStats stats = dir.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.postings_scanned, 1u);
}

}  // namespace
}  // namespace gemstone::index
