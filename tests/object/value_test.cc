#include "object/value.h"

#include <gtest/gtest.h>

namespace gemstone {
namespace {

TEST(ValueTest, DefaultIsNil) {
  Value v;
  EXPECT_TRUE(v.IsNil());
  EXPECT_EQ(v.tag(), ValueTag::kNil);
  EXPECT_EQ(v.ToString(), "nil");
}

TEST(ValueTest, TagsAndAccessors) {
  EXPECT_TRUE(Value::Boolean(true).boolean());
  EXPECT_EQ(Value::Integer(-3).integer(), -3);
  EXPECT_DOUBLE_EQ(Value::Float(2.5).real(), 2.5);
  EXPECT_EQ(Value::String("hi").string(), "hi");
  EXPECT_EQ(Value::Symbol(9).symbol(), 9u);
  EXPECT_EQ(Value::Ref(Oid(12)).ref(), Oid(12));
}

TEST(ValueTest, NumericPredicates) {
  EXPECT_TRUE(Value::Integer(1).IsNumber());
  EXPECT_TRUE(Value::Float(1.0).IsNumber());
  EXPECT_FALSE(Value::String("1").IsNumber());
  EXPECT_DOUBLE_EQ(Value::Integer(4).AsDouble(), 4.0);
}

TEST(ValueTest, SimpleValueEqualityIsValueEquality) {
  EXPECT_EQ(Value::Integer(7), Value::Integer(7));
  EXPECT_NE(Value::Integer(7), Value::Integer(8));
  EXPECT_EQ(Value::String("ab"), Value::String("ab"));
  EXPECT_NE(Value::String("ab"), Value::Symbol(1));
  EXPECT_EQ(Value::Nil(), Value::Nil());
  EXPECT_NE(Value::Nil(), Value::Boolean(false));
}

TEST(ValueTest, MixedNumericEqualityComparesNumerically) {
  EXPECT_EQ(Value::Integer(2), Value::Float(2.0));
  EXPECT_NE(Value::Integer(2), Value::Float(2.5));
}

TEST(ValueTest, RefEqualityIsIdentity) {
  EXPECT_EQ(Value::Ref(Oid(5)), Value::Ref(Oid(5)));
  EXPECT_NE(Value::Ref(Oid(5)), Value::Ref(Oid(6)));
  // A ref is never equal to a simple value.
  EXPECT_NE(Value::Ref(Oid(5)), Value::Integer(5));
}

TEST(ValueTest, HashConsistentWithEquality) {
  ValueHash h;
  EXPECT_EQ(h(Value::Integer(3)), h(Value::Float(3.0)));
  EXPECT_EQ(h(Value::String("x")), h(Value::String("x")));
  EXPECT_EQ(h(Value::Ref(Oid(3))), h(Value::Ref(Oid(3))));
}

// Every association in every history holds a Value, so its size is the
// per-version memory cost of the whole store.
static_assert(sizeof(Value) <= 24, "Value must stay 24 bytes");

TEST(ValueTest, SeparatelyBuiltStringsCompareAndHashByContent) {
  const Value a = Value::String("Lincoln");
  const Value b = Value::String(std::string("Lin") + "coln");
  EXPECT_NE(&a.string(), &b.string());
  EXPECT_EQ(a, b);
  EXPECT_EQ(ValueHash()(a), ValueHash()(b));
  EXPECT_NE(a, Value::String("Lincoln "));
  // Copies share the immutable string.
  const Value copy = a;
  EXPECT_EQ(&copy.string(), &a.string());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Boolean(false).ToString(), "false");
  EXPECT_EQ(Value::Integer(42).ToString(), "42");
  EXPECT_EQ(Value::String("Sales").ToString(), "'Sales'");
  EXPECT_EQ(Value::Ref(Oid(7)).ToString(), "oid:7");
}

}  // namespace
}  // namespace gemstone
