#include "object/gs_object.h"

#include <gtest/gtest.h>

namespace gemstone {
namespace {

TEST(GsObjectTest, IdentityAndClass) {
  GsObject obj(Oid(100), Oid(7));
  EXPECT_EQ(obj.oid(), Oid(100));
  EXPECT_EQ(obj.class_oid(), Oid(7));
}

TEST(GsObjectTest, NamedElementLifecycle) {
  GsObject obj(Oid(1), Oid(2));
  EXPECT_FALSE(obj.HasNamed(10));
  EXPECT_EQ(obj.ReadNamed(10, kTimeNow), nullptr);

  obj.WriteNamed(10, 3, Value::Integer(24650));
  ASSERT_TRUE(obj.HasNamed(10));
  EXPECT_EQ(*obj.ReadNamed(10, kTimeNow), Value::Integer(24650));
  EXPECT_EQ(obj.ReadNamed(10, 2), nullptr);  // before first binding

  obj.WriteNamed(10, 6, Value::Integer(26000));
  EXPECT_EQ(*obj.ReadNamed(10, 5), Value::Integer(24650));
  EXPECT_EQ(*obj.ReadNamed(10, 6), Value::Integer(26000));
}

TEST(GsObjectTest, OptionalVariablesCostNothingUntilBound) {
  GsObject obj(Oid(1), Oid(2));
  obj.WriteNamed(1, 1, Value::Integer(1));
  // Only the bound element occupies storage; an instance lacking the
  // optional variable carries no slot for it (design goal §4.3).
  EXPECT_EQ(obj.named_elements().size(), 1u);
  EXPECT_EQ(obj.TotalAssociations(), 1u);
}

TEST(GsObjectTest, IndexedAppendAndRead) {
  GsObject obj(Oid(1), Oid(2));
  EXPECT_EQ(obj.AppendIndexed(1, Value::String("Anders")), 0u);
  EXPECT_EQ(obj.AppendIndexed(2, Value::String("Roberts")), 1u);
  EXPECT_EQ(*obj.ReadIndexed(0, kTimeNow), Value::String("Anders"));
  EXPECT_EQ(*obj.ReadIndexed(1, kTimeNow), Value::String("Roberts"));
  EXPECT_EQ(obj.ReadIndexed(2, kTimeNow), nullptr);
}

TEST(GsObjectTest, IndexedSizeIsTemporal) {
  GsObject obj(Oid(1), Oid(2));
  obj.AppendIndexed(2, Value::Integer(1));
  obj.AppendIndexed(5, Value::Integer(2));
  obj.AppendIndexed(9, Value::Integer(3));
  EXPECT_EQ(obj.IndexedSizeAt(1), 0u);
  EXPECT_EQ(obj.IndexedSizeAt(2), 1u);
  EXPECT_EQ(obj.IndexedSizeAt(5), 2u);
  EXPECT_EQ(obj.IndexedSizeAt(8), 2u);
  EXPECT_EQ(obj.IndexedSizeAt(kTimeNow), 3u);
}

TEST(GsObjectTest, WriteIndexedGrowsWithNilGaps) {
  GsObject obj(Oid(1), Oid(2));
  obj.WriteIndexed(3, 4, Value::Integer(99));
  EXPECT_EQ(obj.indexed_capacity(), 4u);
  ASSERT_NE(obj.ReadIndexed(1, 4), nullptr);
  EXPECT_TRUE(obj.ReadIndexed(1, 4)->IsNil());
  EXPECT_EQ(*obj.ReadIndexed(3, 4), Value::Integer(99));
}

TEST(GsObjectTest, IndexedSlotHistory) {
  GsObject obj(Oid(1), Oid(2));
  obj.AppendIndexed(1, Value::Integer(10));
  obj.WriteIndexed(0, 5, Value::Integer(20));
  EXPECT_EQ(*obj.ReadIndexed(0, 3), Value::Integer(10));
  EXPECT_EQ(*obj.ReadIndexed(0, 5), Value::Integer(20));
  EXPECT_EQ(obj.IndexedHistory(0)->history_size(), 2u);
}

TEST(GsObjectTest, ByteSizeGrowsWithHistory) {
  GsObject obj(Oid(1), Oid(2));
  const std::size_t empty = obj.ApproximateByteSize();
  obj.WriteNamed(1, 1, Value::String("hello"));
  const std::size_t one = obj.ApproximateByteSize();
  obj.WriteNamed(1, 2, Value::String("world!"));
  const std::size_t two = obj.ApproximateByteSize();
  EXPECT_LT(empty, one);
  EXPECT_LT(one, two);
}

TEST(GsObjectTest, CopySemanticsForWorkspaces) {
  GsObject obj(Oid(1), Oid(2));
  obj.WriteNamed(1, 1, Value::Integer(5));
  GsObject copy = obj;
  copy.WriteNamed(1, 2, Value::Integer(6));
  // The original is unaffected by writes to the workspace copy.
  EXPECT_EQ(obj.NamedHistory(1)->history_size(), 1u);
  EXPECT_EQ(copy.NamedHistory(1)->history_size(), 2u);
}

}  // namespace
}  // namespace gemstone
