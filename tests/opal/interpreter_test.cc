// End-to-end OPAL execution through the Executor: source blocks in,
// values out — the system boundary of §6.

#include <gtest/gtest.h>

#include "executor/executor.h"
#include "telemetry/metrics.h"

namespace gemstone::opal {
namespace {

using executor::Executor;

class OpalTest : public ::testing::Test {
 protected:
  OpalTest() { session_ = executor_.Login().ValueOrDie(); }

  Value Eval(std::string_view src) {
    auto result = executor_.Execute(session_, src);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n  in: "
                             << src;
    return result.ok() ? std::move(result).value() : Value::Nil();
  }

  Status EvalError(std::string_view src) {
    auto result = executor_.Execute(session_, src);
    EXPECT_FALSE(result.ok()) << "expected failure for: " << src;
    return result.status();
  }

  std::string Print(std::string_view src) {
    auto result = executor_.ExecuteToString(session_, src);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value() : std::string();
  }

  Executor executor_;
  SessionId session_ = 0;
};

// --- Literals and arithmetic --------------------------------------------------

TEST_F(OpalTest, Arithmetic) {
  EXPECT_EQ(Eval("3 + 4"), Value::Integer(7));
  EXPECT_EQ(Eval("3 - 4"), Value::Integer(-1));
  EXPECT_EQ(Eval("6 * 7"), Value::Integer(42));
  EXPECT_EQ(Eval("10 / 2"), Value::Integer(5));
  EXPECT_EQ(Eval("10 / 4"), Value::Float(2.5));
  EXPECT_EQ(Eval("7 // 2"), Value::Integer(3));
  EXPECT_EQ(Eval("7 \\\\ 2"), Value::Integer(1));
  EXPECT_EQ(Eval("2.5 + 0.5"), Value::Float(3.0));
  EXPECT_EQ(Eval("-3 abs"), Value::Integer(3));
  EXPECT_EQ(Eval("4 sqrt"), Value::Float(2.0));
  EXPECT_EQ(Eval("3 max: 9"), Value::Integer(9));
  EXPECT_EQ(Eval("5 between: 1 and: 10"), Value::Boolean(true));
}

TEST_F(OpalTest, SmalltalkPrecedenceNoArithmeticPriority) {
  // Binary operators associate left with no precedence: 2 + 3 * 4 = 20.
  EXPECT_EQ(Eval("2 + 3 * 4"), Value::Integer(20));
  EXPECT_EQ(Eval("2 + (3 * 4)"), Value::Integer(14));
}

TEST_F(OpalTest, Comparisons) {
  EXPECT_EQ(Eval("3 < 4"), Value::Boolean(true));
  EXPECT_EQ(Eval("3 = 3.0"), Value::Boolean(true));
  EXPECT_EQ(Eval("3 ~= 4"), Value::Boolean(true));
  EXPECT_EQ(Eval("'abc' < 'abd'"), Value::Boolean(true));
  EXPECT_EQ(Eval("'a' = 'a'"), Value::Boolean(true));
}

TEST_F(OpalTest, Strings) {
  EXPECT_EQ(Eval("'foo' , 'bar'"), Value::String("foobar"));
  EXPECT_EQ(Eval("'hello' size"), Value::Integer(5));
  EXPECT_EQ(Eval("'hello' at: 1"), Value::String("h"));
  EXPECT_EQ(Eval("'hello' copyFrom: 2 to: 4"), Value::String("ell"));
  EXPECT_EQ(Eval("'sym' asSymbol asString"), Value::String("sym"));
}

TEST_F(OpalTest, BooleansAndControlFlow) {
  EXPECT_EQ(Eval("true & false"), Value::Boolean(false));
  EXPECT_EQ(Eval("true not"), Value::Boolean(false));
  EXPECT_EQ(Eval("false and: [1/0]"), Value::Boolean(false));  // short-circuit
  EXPECT_EQ(Eval("true or: [1/0]"), Value::Boolean(true));
  EXPECT_EQ(Eval("3 < 4 ifTrue: ['yes'] ifFalse: ['no']"),
            Value::String("yes"));
  EXPECT_EQ(Eval("3 > 4 ifTrue: ['yes']"), Value::Nil());
}

TEST_F(OpalTest, TempsAndSequencing) {
  EXPECT_EQ(Eval("| a b | a := 2. b := a * 3. a + b"), Value::Integer(8));
}

// --- Blocks -------------------------------------------------------------------

TEST_F(OpalTest, BlockValues) {
  EXPECT_EQ(Eval("[42] value"), Value::Integer(42));
  EXPECT_EQ(Eval("[:x | x * 2] value: 21"), Value::Integer(42));
  EXPECT_EQ(Eval("[:a :b | a - b] value: 10 value: 4"), Value::Integer(6));
  EXPECT_EQ(Eval("[:x | x] numArgs"), Value::Integer(1));
}

TEST_F(OpalTest, BlocksCloseOverTemps) {
  EXPECT_EQ(Eval("| n add | n := 10. add := [:x | n + x]. n := 20. "
                 "add value: 1"),
            Value::Integer(21));
  // Writing an outer temp from inside a block is visible outside.
  EXPECT_EQ(Eval("| n | n := 0. [n := n + 5] value. n"), Value::Integer(5));
}

TEST_F(OpalTest, WhileLoop) {
  EXPECT_EQ(Eval("| i sum | i := 0. sum := 0. "
                 "[i < 5] whileTrue: [i := i + 1. sum := sum + i]. sum"),
            Value::Integer(15));
}

TEST_F(OpalTest, ToDoLoop) {
  EXPECT_EQ(Eval("| sum | sum := 0. 1 to: 10 do: [:i | sum := sum + i]. sum"),
            Value::Integer(55));
  EXPECT_EQ(Eval("| s | s := 0. 10 to: 1 by: -2 do: [:i | s := s + i]. s"),
            Value::Integer(30));
  EXPECT_EQ(Eval("| n | n := 0. 3 timesRepeat: [n := n + 2]. n"),
            Value::Integer(6));
}

TEST_F(OpalTest, WrongBlockArityFails) {
  EXPECT_EQ(EvalError("[:x | x] value").code(), StatusCode::kRuntimeError);
}

// --- Classes and methods --------------------------------------------------------

TEST_F(OpalTest, DefineClassAndMethods) {
  Eval("Object subclass: 'Employee' "
       "instVarNames: #('name' 'salary' 'depts')");
  Eval("Employee compileMethod: 'name ^name'");
  Eval("Employee compileMethod: 'name: aString name := aString'");
  Eval("Employee compileMethod: 'salary ^salary'");
  Eval("Employee compileMethod: 'salary: aNumber salary := aNumber'");
  Eval("Employee compileMethod: 'raise: pct "
       "salary := salary + (salary * pct / 100) asInteger'");

  EXPECT_EQ(Eval("| e | e := Employee new. e name: 'Ellen Burns'. "
                 "e salary: 24650. e raise: 10. e salary"),
            Value::Integer(27115));
  EXPECT_EQ(Eval("Employee name"), Value::String("Employee"));
  EXPECT_EQ(Eval("Employee superclass name"), Value::String("Object"));
  EXPECT_EQ(Eval("Employee new class name"), Value::String("Employee"));
}

// §4.1's running example: Manager extends Employee.
TEST_F(OpalTest, SubclassInheritsAndOverrides) {
  Eval("Object subclass: 'Employee' instVarNames: #('name' 'salary')");
  Eval("Employee compileMethod: 'title ^''worker'''");
  Eval("Employee compileMethod: 'describe ^self title , ''!'''");
  Eval("Employee subclass: 'Manager' instVarNames: #('managedDept')");
  Eval("Manager compileMethod: 'title ^''manager'''");
  Eval("Manager compileMethod: 'superTitle ^super title'");

  EXPECT_EQ(Eval("Employee new describe"), Value::String("worker!"));
  // Late binding: describe on a Manager finds the override via self-send.
  EXPECT_EQ(Eval("Manager new describe"), Value::String("manager!"));
  // super starts lookup above the defining class.
  EXPECT_EQ(Eval("Manager new superTitle"), Value::String("worker"));
  EXPECT_EQ(Eval("Manager new isKindOf: Employee"), Value::Boolean(true));
  EXPECT_EQ(Eval("Employee new isKindOf: Manager"), Value::Boolean(false));
}

TEST_F(OpalTest, AddInstVarNameAfterInstancesExist) {
  Eval("Object subclass: 'Car' instVarNames: #('plate')");
  Eval("MyCar := Car new. MyCar instVarNamed: 'plate' put: 'ABC-123'");
  Eval("Car addInstVarName: 'color'");
  Eval("Car compileMethod: 'color ^color'");
  Eval("Car compileMethod: 'color: c color := c'");
  EXPECT_EQ(Eval("MyCar color"), Value::Nil());  // optional until bound
  Eval("MyCar color: 'red'");
  EXPECT_EQ(Eval("MyCar color"), Value::String("red"));
  EXPECT_EQ(Eval("MyCar instVarNamed: 'plate'"), Value::String("ABC-123"));
}

TEST_F(OpalTest, DoesNotUnderstand) {
  Status s = EvalError("42 fooBar");
  EXPECT_EQ(s.code(), StatusCode::kDoesNotUnderstand);
  EXPECT_NE(s.message().find("Integer"), std::string::npos);
  EXPECT_NE(s.message().find("fooBar"), std::string::npos);
}

TEST_F(OpalTest, NonLocalReturnFromBlock) {
  Eval("Object subclass: 'Finder' instVarNames: #()");
  Eval("Finder compileMethod: 'firstOver: n in: coll "
       "coll do: [:e | e > n ifTrue: [^e]]. ^nil'");
  EXPECT_EQ(Eval("Finder new firstOver: 10 in: {3. 7. 12. 40}"),
            Value::Integer(12));
  EXPECT_EQ(Eval("Finder new firstOver: 99 in: {3. 7}"), Value::Nil());
}

// --- Identity vs equality (§4.2) ------------------------------------------------

TEST_F(OpalTest, IdentityVersusStructuralEquivalence) {
  Eval("Object subclass: 'Gate' instVarNames: #('kind')");
  Eval("G1 := Gate new. G1 instVarNamed: 'kind' put: 'nand'. "
       "G2 := Gate new. G2 instVarNamed: 'kind' put: 'nand'");
  EXPECT_EQ(Eval("G1 == G2"), Value::Boolean(false));
  EXPECT_EQ(Eval("G1 == G1"), Value::Boolean(true));
  EXPECT_EQ(Eval("G1 deepEqualTo: G2"), Value::Boolean(true));
  Eval("G2 instVarNamed: 'kind' put: 'nor'");
  EXPECT_EQ(Eval("G1 deepEqualTo: G2"), Value::Boolean(false));
}

// --- Collections -----------------------------------------------------------------

TEST_F(OpalTest, SetProtocol) {
  EXPECT_EQ(Eval("| s | s := Set new. s add: 1; add: 2; add: 2. s size"),
            Value::Integer(2));
  EXPECT_EQ(Eval("| s | s := Set new. s add: 'a'. s includes: 'a'"),
            Value::Boolean(true));
  EXPECT_EQ(Eval("| s | s := Set new. s add: 1; add: 2. s remove: 1. s size"),
            Value::Integer(1));
  EXPECT_EQ(EvalError("Set new remove: 9").code(), StatusCode::kNotFound);
  EXPECT_EQ(Eval("Set new remove: 9 ifAbsent: ['gone']"),
            Value::String("gone"));
  // Bag keeps duplicates.
  EXPECT_EQ(Eval("| b | b := Bag new. b add: 1; add: 1. b size"),
            Value::Integer(2));
}

TEST_F(OpalTest, CollectionIteration) {
  EXPECT_EQ(Eval("| sum | sum := 0. {1. 2. 3} do: [:x | sum := sum + x]. "
                 "sum"),
            Value::Integer(6));
  EXPECT_EQ(Eval("({1. 2. 3. 4} select: [:x | x > 2]) size"),
            Value::Integer(2));
  EXPECT_EQ(Eval("({1. 2. 3} collect: [:x | x * x]) last"),
            Value::Integer(9));
  EXPECT_EQ(Eval("{1. 2. 3} detect: [:x | x > 1]"), Value::Integer(2));
  EXPECT_EQ(Eval("{1. 2} detect: [:x | x > 9] ifNone: [0]"),
            Value::Integer(0));
  EXPECT_EQ(Eval("{1. 2. 3} inject: 0 into: [:acc :x | acc + x]"),
            Value::Integer(6));
  EXPECT_EQ(Eval("({3. 1} reject: [:x | x > 2]) first"), Value::Integer(1));
}

TEST_F(OpalTest, ArraysAndOrderedCollections) {
  EXPECT_EQ(Eval("#(10 20 30) at: 2"), Value::Integer(20));
  EXPECT_EQ(Eval("| a | a := Array new: 3. a at: 1 put: 'x'. a at: 1"),
            Value::String("x"));
  EXPECT_EQ(EvalError("#(1 2) at: 5").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Eval("| o | o := OrderedCollection new. o add: 9; add: 8. "
                 "o first"),
            Value::Integer(9));
  EXPECT_EQ(Eval("#(1 2 2 3) asSet size"), Value::Integer(3));
}

TEST_F(OpalTest, DictionaryProtocol) {
  EXPECT_EQ(Eval("| d | d := Dictionary new. d at: 'sales' put: 142000. "
                 "d at: 'sales'"),
            Value::Integer(142000));
  EXPECT_EQ(Eval("| d | d := Dictionary new. d at: 'k' ifAbsent: [0]"),
            Value::Integer(0));
  EXPECT_EQ(Eval("| d | d := Dictionary new. d at: 'a' put: 1. "
                 "d includesKey: 'a'"),
            Value::Boolean(true));
  EXPECT_EQ(EvalError("Dictionary new at: 'missing'").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Eval("| d | d := Dictionary new. d at: 'a' put: 1. "
                 "d removeKey: 'a'. d includesKey: 'a'"),
            Value::Boolean(false));
  EXPECT_EQ(Eval("| d | d := Dictionary new. d at: 'a' put: 1; "
                 "at: 'b' put: 2. d keys size"),
            Value::Integer(2));
}

// --- Paths and time (§5.3/§5.4) ---------------------------------------------------

TEST_F(OpalTest, PathNavigationAndAssignment) {
  Eval("Object subclass: 'Dept' instVarNames: #('Name' 'Budget')");
  Eval("D := Dept new. D!Name := 'Sales'. D!Budget := 142000");
  EXPECT_EQ(Eval("D!Name"), Value::String("Sales"));
  EXPECT_EQ(Eval("D!Budget"), Value::Integer(142000));
  // Path assignment answers the assigned value and chains.
  EXPECT_EQ(Eval("D!Budget := D!Budget + 1000"), Value::Integer(143000));
}

TEST_F(OpalTest, PathWithTimeTravel) {
  Eval("Object subclass: 'Co' instVarNames: #('president')");
  Eval("Acme := Co new. Acme!president := 'Rand'. "
       "System commitTransaction");
  const TxnTime t1 = executor_.transactions().Now();
  Eval("Acme!president := 'Friedman'. System commitTransaction");
  EXPECT_EQ(Eval("Acme!president"), Value::String("Friedman"));
  EXPECT_EQ(Eval("Acme!president@" + std::to_string(t1)),
            Value::String("Rand"));
  // The message form of the same read.
  EXPECT_EQ(Eval("Acme elementAt: 'president' atTime: " +
                 std::to_string(t1)),
            Value::String("Rand"));
}

TEST_F(OpalTest, TimeDialThroughSystem) {
  Eval("Object subclass: 'Box' instVarNames: #('v')");
  Eval("B := Box new. B!v := 'old'. System commitTransaction");
  const TxnTime t1 = executor_.transactions().Now();
  Eval("B!v := 'new'. System commitTransaction");
  Eval("System timeDial: " + std::to_string(t1));
  EXPECT_EQ(Eval("B!v"), Value::String("old"));
  // Writes are rejected while dialed into the past.
  EXPECT_EQ(EvalError("B!v := 'bad'").code(), StatusCode::kTransactionState);
  Eval("System clearTimeDial");
  EXPECT_EQ(Eval("B!v"), Value::String("new"));
}

TEST_F(OpalTest, AbortTransactionDiscardsWorkAndAnswersTrue) {
  Eval("Object subclass: 'Box' instVarNames: #('v')");
  Eval("B := Box new. B!v := 'kept'. System commitTransaction");
  Eval("B!v := 'dropped'");
  EXPECT_EQ(Eval("B!v"), Value::String("dropped"));
  EXPECT_EQ(Eval("System abortTransaction"), Value::Boolean(true));
  EXPECT_EQ(Eval("B!v"), Value::String("kept"));
  // The session is in a fresh transaction: new work commits.
  Eval("B!v := 'next'");
  EXPECT_EQ(Eval("System commitTransaction"), Value::Boolean(true));
  EXPECT_EQ(Eval("B!v"), Value::String("next"));
}

TEST_F(OpalTest, SystemClockMessages) {
  Value t0 = Eval("System now");
  Eval("X := Object new. System commitTransaction");
  Value t1 = Eval("System now");
  EXPECT_EQ(t1.integer(), t0.integer() + 1);
  EXPECT_EQ(Eval("System safeTime"), t1);
}

// --- Declarative selection ---------------------------------------------------------

TEST_F(OpalTest, SelectWhereMatchesSelect) {
  Eval("Object subclass: 'Emp' instVarNames: #('name' 'salary' 'dept')");
  Eval("Emps := Set new");
  Eval("1 to: 20 do: [:i | | e | e := Emp new. "
       "e instVarNamed: 'name' put: 'emp' , i printString. "
       "e instVarNamed: 'salary' put: i * 1000. "
       "e instVarNamed: 'dept' put: (i \\\\ 2 = 0 "
       "ifTrue: ['Sales'] ifFalse: ['Research']). "
       "Emps add: e]");
  EXPECT_EQ(Eval("Emps size"), Value::Integer(20));
  EXPECT_EQ(Eval("(Emps select: [:e | (e!salary > 10000) & "
                 "(e!dept = 'Sales')]) size"),
            Eval("(Emps selectWhere: [:e | (e!salary > 10000) & "
                 "(e!dept = 'Sales')]) size"));
  EXPECT_EQ(Eval("(Emps selectWhere: [:e | e!dept = 'Sales']) size"),
            Value::Integer(10));
  EXPECT_EQ(Eval("[:e | e!dept = 'Sales'] isDeclarative"),
            Value::Boolean(true));
  // Procedural-only blocks are rejected by selectWhere:.
  EXPECT_EQ(EvalError("Emps selectWhere: [:e | e!name size > 3]").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(OpalTest, SelectWhereUsesDirectory) {
  Eval("Object subclass: 'Emp2' instVarNames: #('salary' 'dept')");
  Eval("Emps2 := Set new");
  Eval("1 to: 50 do: [:i | | e | e := Emp2 new. "
       "e instVarNamed: 'salary' put: i. "
       "e instVarNamed: 'dept' put: (i \\\\ 5) printString. "
       "Emps2 add: e]");
  Eval("System commitTransaction");
  EXPECT_EQ(Eval("System createDirectoryOn: Emps2 path: #('dept')"),
            Value::Boolean(true));
  auto lookups = [] {
    return telemetry::MetricsRegistry::Global()
        .Snapshot()
        .counters["directory.lookups"];
  };
  const std::uint64_t before = lookups();
  // Directory-accelerated equality probe gives the same answer.
  EXPECT_EQ(Eval("(Emps2 selectWhere: [:e | e!dept = '3']) size"),
            Value::Integer(10));
  // The directory was actually consulted, once.
  EXPECT_EQ(lookups(), before + 1);
}

// --- Cascades, printString, globals -------------------------------------------------

TEST_F(OpalTest, CascadeReturnsLastResult) {
  EXPECT_EQ(Eval("| s | s := Set new. s add: 1; add: 2; size"),
            Value::Integer(2));
}

TEST_F(OpalTest, PrintStrings) {
  EXPECT_EQ(Print("42"), "42");
  EXPECT_EQ(Print("'x'"), "'x'");
  EXPECT_EQ(Print("nil"), "nil");
  EXPECT_EQ(Print("#foo"), "#foo");
  EXPECT_EQ(Print("Object new"), "an Object");
  EXPECT_EQ(Print("Set new"), "a Set");
  EXPECT_EQ(Print("Set"), "Set");
  EXPECT_EQ(Print("[:x | x]"), "a Block");
}

TEST_F(OpalTest, GlobalsPersistAcrossExecutes) {
  Eval("Counter := 10");
  EXPECT_EQ(Eval("Counter + 1"), Value::Integer(11));
  EXPECT_EQ(EvalError("NeverDefined").code(), StatusCode::kRuntimeError);
}

TEST_F(OpalTest, ErrorsCarryUserMessages) {
  Status s = EvalError("self error: 'custom failure'");
  EXPECT_EQ(s.code(), StatusCode::kRuntimeError);
  EXPECT_NE(s.message().find("custom failure"), std::string::npos);
}

TEST_F(OpalTest, TransactionConflictSurfacesAsFalse) {
  // Two sessions race on one object; the loser's commit answers false.
  Eval("Shared := Object new. "
       "Shared instVarNamed: 'n' put: 0. System commitTransaction");
  SessionId other = executor_.Login().ValueOrDie();
  ASSERT_TRUE(executor_
                  .Execute(other,
                           "Shared instVarNamed: 'n' put: 1. "
                           "System commitTransaction")
                  .ok());
  // This session read/written workspace is stale now.
  EXPECT_EQ(Eval("Shared instVarNamed: 'n' put: 2. "
                 "System commitTransaction"),
            Value::Boolean(false));
  // After the implicit renew, a retry wins.
  EXPECT_EQ(Eval("Shared instVarNamed: 'n' put: 2. "
                 "System commitTransaction"),
            Value::Boolean(true));
}

}  // namespace
}  // namespace gemstone::opal
