#include "workload/spec.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/distributions.h"

namespace webtx {
namespace {

TEST(WorkloadSpecTest, DefaultsMatchPaperTableI) {
  const WorkloadSpec spec;
  EXPECT_EQ(spec.num_transactions, 1000u);
  EXPECT_EQ(spec.zipf_alpha, 0.5);
  EXPECT_EQ(spec.min_length, 1u);
  EXPECT_EQ(spec.max_length, 50u);
  EXPECT_EQ(spec.k_max, 3.0);
  EXPECT_EQ(spec.min_weight, 1u);
  EXPECT_EQ(spec.max_weight, 1u);
  EXPECT_EQ(spec.max_workflow_length, 1u);
  EXPECT_EQ(spec.max_workflows_per_txn, 1u);
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(WorkloadSpecTest, MeanLengthMatchesZipf) {
  const WorkloadSpec spec;
  const ZipfDistribution zipf(50, 0.5);
  EXPECT_NEAR(spec.MeanLength(), zipf.Mean(), 1e-12);
}

TEST(WorkloadSpecTest, MeanLengthWithShiftedRange) {
  WorkloadSpec spec;
  spec.min_length = 10;
  spec.max_length = 10;
  EXPECT_NEAR(spec.MeanLength(), 10.0, 1e-12);
}

TEST(WorkloadSpecTest, ArrivalRateIsUtilizationOverMeanLength) {
  WorkloadSpec spec;
  spec.utilization = 0.8;
  EXPECT_NEAR(spec.ArrivalRate(), 0.8 / spec.MeanLength(), 1e-12);
}

TEST(WorkloadSpecTest, ValidationRejectsBadParameters) {
  const auto broken = [](auto mutate) {
    WorkloadSpec spec;
    mutate(spec);
    return spec.Validate();
  };
  EXPECT_FALSE(broken([](auto& s) { s.num_transactions = 0; }).ok());
  EXPECT_FALSE(broken([](auto& s) { s.zipf_alpha = -0.1; }).ok());
  EXPECT_FALSE(broken([](auto& s) { s.min_length = 0; }).ok());
  EXPECT_FALSE(broken([](auto& s) {
                 s.min_length = 10;
                 s.max_length = 5;
               }).ok());
  EXPECT_FALSE(broken([](auto& s) { s.k_max = -1.0; }).ok());
  EXPECT_FALSE(broken([](auto& s) { s.utilization = 0.0; }).ok());
  EXPECT_FALSE(broken([](auto& s) { s.min_weight = 0; }).ok());
  EXPECT_FALSE(broken([](auto& s) {
                 s.min_weight = 5;
                 s.max_weight = 2;
               }).ok());
  EXPECT_FALSE(broken([](auto& s) { s.max_workflow_length = 0; }).ok());
  EXPECT_FALSE(broken([](auto& s) { s.max_workflows_per_txn = 0; }).ok());

  // NaN fails every ordered comparison, so each range test must reject
  // it explicitly; an infinite utilization collapses all arrivals to 0.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    const char* field;
    double WorkloadSpec::*member;
    double value;
  } kCases[] = {
      {"utilization", &WorkloadSpec::utilization, kNaN},
      {"utilization", &WorkloadSpec::utilization, kInf},
      {"k_max", &WorkloadSpec::k_max, kNaN},
      {"zipf_alpha", &WorkloadSpec::zipf_alpha, kNaN},
      {"burstiness", &WorkloadSpec::burstiness, kNaN},
      {"estimate_error", &WorkloadSpec::estimate_error, kNaN},
  };
  for (const auto& c : kCases) {
    WorkloadSpec spec;
    spec.*c.member = c.value;
    const Status status = spec.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << c.field << " = " << c.value;
    EXPECT_NE(status.message().find(c.field), std::string::npos)
        << status.message();
  }
}

}  // namespace
}  // namespace webtx
