// Unit tests for the Status/StatusOr error-handling substrate.

#include "support/status.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "support/status_macros.h"

namespace oocq {
namespace {

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::FailedPrecondition("fp").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("nf").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ResourceExhausted("re").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("i").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotFound("thing").message(), "thing");
}

TEST(Status, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::InvalidArgument("bad input").ToString(),
            "INVALID_ARGUMENT: bad input");
}

TEST(Status, Equality) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusCodeToString, AllCodes) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "INTERNAL");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  EXPECT_EQ(value.status().code(), StatusCode::kOk);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> value = Status::NotFound("missing");
  EXPECT_FALSE(value.ok());
  EXPECT_EQ(value.status().message(), "missing");
}

TEST(StatusOr, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> value = std::make_unique<int>(7);
  ASSERT_TRUE(value.ok());
  std::unique_ptr<int> taken = *std::move(value);
  EXPECT_EQ(*taken, 7);
}

TEST(StatusOr, ArrowOperator) {
  StatusOr<std::string> value = std::string("hello");
  EXPECT_EQ(value->size(), 5u);
}

TEST(StatusOr, OkStatusConstructionBecomesInternalError) {
  // Constructing a StatusOr from an OK status is a bug; it degrades to an
  // internal error instead of silently pretending to hold a value.
  StatusOr<int> value{Status::Ok()};
  EXPECT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kInternal);
}

// status() on a temporary returns the Status by value: a reference into
// the temporary would dangle once the full-expression ends (as in
// `OOCQ_ASSERT_OK(f().status())`), while lvalues keep the cheap reference.
static_assert(std::is_same_v<decltype(std::declval<StatusOr<int>>().status()),
                             Status>);
static_assert(std::is_same_v<decltype(std::declval<StatusOr<int>&>().status()),
                             const Status&>);

namespace macros {

Status Fails() { return Status::NotFound("inner"); }
Status Succeeds() { return Status::Ok(); }

Status Caller(bool fail) {
  OOCQ_RETURN_IF_ERROR(fail ? Fails() : Succeeds());
  return Status::InvalidArgument("after");
}

StatusOr<int> Inner(bool fail) {
  if (fail) return Status::NotFound("no int");
  return 5;
}

StatusOr<int> Outer(bool fail) {
  OOCQ_ASSIGN_OR_RETURN(int x, Inner(fail));
  return x + 1;
}

}  // namespace macros

TEST(StatusMacros, ReturnIfErrorPropagates) {
  EXPECT_EQ(macros::Caller(true).code(), StatusCode::kNotFound);
  EXPECT_EQ(macros::Caller(false).code(), StatusCode::kInvalidArgument);
}

TEST(StatusMacros, AssignOrReturn) {
  StatusOr<int> ok = macros::Outer(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 6);
  EXPECT_EQ(macros::Outer(true).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace oocq
