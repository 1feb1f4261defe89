#include "object/object_memory.h"

#include <gtest/gtest.h>

#include "object/printer.h"

namespace gemstone {
namespace {

class ObjectMemoryTest : public ::testing::Test {
 protected:
  // Creates an object of `class_oid` directly in permanent space.
  Oid MakeObject(Oid class_oid) {
    Oid oid = memory_.AllocateOid();
    EXPECT_TRUE(memory_.Insert(GsObject(oid, class_oid)).ok());
    return oid;
  }

  SymbolId Sym(std::string_view s) { return memory_.symbols().Intern(s); }

  ObjectMemory memory_;
};

TEST_F(ObjectMemoryTest, KernelHierarchyBootstrapped) {
  const auto& k = memory_.kernel();
  const ClassRegistry& c = memory_.classes();
  EXPECT_EQ(c.Get(k.object)->name(), "Object");
  EXPECT_TRUE(c.IsKindOf(k.integer, k.number));
  EXPECT_TRUE(c.IsKindOf(k.integer, k.magnitude));
  EXPECT_TRUE(c.IsKindOf(k.set, k.collection));
  EXPECT_TRUE(c.IsKindOf(k.symbol, k.string));
  EXPECT_FALSE(c.IsKindOf(k.string, k.number));
  EXPECT_EQ(c.Get(k.set)->format(), ObjectFormat::kSet);
  EXPECT_EQ(c.Get(k.array)->format(), ObjectFormat::kIndexed);
}

TEST_F(ObjectMemoryTest, OidsAreUniqueAndNeverReused) {
  Oid a = memory_.AllocateOid();
  Oid b = memory_.AllocateOid();
  EXPECT_NE(a, b);
  EXPECT_FALSE(a.IsNil());
}

TEST_F(ObjectMemoryTest, InsertFindRoundTrip) {
  Oid oid = MakeObject(memory_.kernel().object);
  const GsObject* found = memory_.Find(oid);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->oid(), oid);
  EXPECT_TRUE(memory_.Contains(oid));
  // The bootstrapped System singleton plus the new object.
  EXPECT_EQ(memory_.NumObjects(), 2u);
}

TEST_F(ObjectMemoryTest, DoubleInsertRejected) {
  Oid oid = MakeObject(memory_.kernel().object);
  Status s = memory_.Insert(GsObject(oid, memory_.kernel().object));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST_F(ObjectMemoryTest, ReadNamedErrors) {
  EXPECT_EQ(memory_.ReadNamed(Oid(999), Sym("x"), kTimeNow).status().code(),
            StatusCode::kNotFound);
  Oid oid = MakeObject(memory_.kernel().object);
  EXPECT_EQ(memory_.ReadNamed(oid, Sym("x"), kTimeNow).status().code(),
            StatusCode::kNotFound);
  memory_.FindMutable(oid)->WriteNamed(Sym("x"), 5, Value::Integer(1));
  EXPECT_EQ(memory_.ReadNamed(oid, Sym("x"), 4).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(memory_.ReadNamed(oid, Sym("x"), 5).ValueOrDie(),
            Value::Integer(1));
}

TEST_F(ObjectMemoryTest, ArchivedObjectsReportUnavailable) {
  Oid oid = MakeObject(memory_.kernel().object);
  memory_.FindMutable(oid)->WriteNamed(Sym("x"), 1, Value::Integer(1));
  auto detached = memory_.Detach(oid);
  ASSERT_TRUE(detached.ok());
  EXPECT_EQ(memory_.Find(oid), nullptr);
  EXPECT_TRUE(memory_.IsArchived(oid));
  EXPECT_EQ(memory_.ReadNamed(oid, Sym("x"), kTimeNow).status().code(),
            StatusCode::kUnavailable);
  // Detaching twice fails.
  EXPECT_EQ(memory_.Detach(oid).status().code(), StatusCode::kNotFound);
}

TEST_F(ObjectMemoryTest, ClassOfImmediatesAndRefs) {
  const auto& k = memory_.kernel();
  EXPECT_EQ(memory_.ClassOf(Value::Nil()), k.undefined_object);
  EXPECT_EQ(memory_.ClassOf(Value::Boolean(true)), k.boolean);
  EXPECT_EQ(memory_.ClassOf(Value::Integer(1)), k.integer);
  EXPECT_EQ(memory_.ClassOf(Value::Float(1.5)), k.real);
  EXPECT_EQ(memory_.ClassOf(Value::String("s")), k.string);
  EXPECT_EQ(memory_.ClassOf(Value::Symbol(Sym("s"))), k.symbol);
  Oid oid = MakeObject(k.set);
  EXPECT_EQ(memory_.ClassOf(Value::Ref(oid)), k.set);
}

TEST_F(ObjectMemoryTest, PrinterRendersStdmNotation) {
  const auto& k = memory_.kernel();
  Oid dept = MakeObject(k.object);
  Oid managers = MakeObject(k.set);
  GsObject* d = memory_.FindMutable(dept);
  d->WriteNamed(Sym("Name"), 1, Value::String("Sales"));
  d->WriteNamed(Sym("Managers"), 1, Value::Ref(managers));
  d->WriteNamed(Sym("Budget"), 1, Value::Integer(142000));
  GsObject* m = memory_.FindMutable(managers);
  m->WriteNamed(memory_.symbols().GenerateAlias(), 1, Value::String("Nathen"));
  m->WriteNamed(memory_.symbols().GenerateAlias(), 1, Value::String("Roberts"));

  EXPECT_EQ(PrintObject(memory_, dept, kTimeNow),
            "{Name: 'Sales', Managers: {'Nathen', 'Roberts'}, "
            "Budget: 142000}");
}

TEST_F(ObjectMemoryTest, PrinterElidesDepartedMembersAtLaterTimes) {
  Oid set = MakeObject(memory_.kernel().set);
  SymbolId alias = memory_.symbols().GenerateAlias();
  GsObject* s = memory_.FindMutable(set);
  s->WriteNamed(alias, 2, Value::String("Ayn Rand"));
  s->WriteNamed(alias, 8, Value::Nil());
  EXPECT_EQ(PrintObject(memory_, set, 5), "{'Ayn Rand'}");
  EXPECT_EQ(PrintObject(memory_, set, 9), "{}");
}

}  // namespace
}  // namespace gemstone
