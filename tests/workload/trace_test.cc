#include "workload/trace.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "testing/fake_view.h"
#include "workload/generator.h"

namespace webtx {
namespace {

using testing::Txn;

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() {
    char buf[] = "/tmp/webtx_trace_test_XXXXXX";
    const int fd = mkstemp(buf);
    EXPECT_GE(fd, 0);
    close(fd);
    path_ = buf;
  }
  ~TraceTest() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(TraceTest, RoundTripPreservesEverything) {
  WorkloadSpec spec;
  spec.num_transactions = 200;
  spec.max_workflow_length = 4;
  spec.max_workflows_per_txn = 2;
  spec.max_weight = 10;
  spec.estimate_error = 0.4;
  auto generator = WorkloadGenerator::Create(spec);
  ASSERT_TRUE(generator.ok());
  const auto original = generator.ValueOrDie().Generate(77);

  ASSERT_TRUE(WriteTrace(path_, original).ok());
  auto loaded = ReadTrace(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const auto& txns = loaded.ValueOrDie();
  ASSERT_EQ(txns.size(), original.size());
  for (size_t i = 0; i < txns.size(); ++i) {
    EXPECT_EQ(txns[i].id, original[i].id);
    EXPECT_EQ(txns[i].arrival, original[i].arrival);  // exact (17 digits)
    EXPECT_EQ(txns[i].length, original[i].length);
    EXPECT_EQ(txns[i].length_estimate, original[i].length_estimate);
    EXPECT_EQ(txns[i].deadline, original[i].deadline);
    EXPECT_EQ(txns[i].weight, original[i].weight);
    EXPECT_EQ(txns[i].dependencies, original[i].dependencies);
  }
}

TEST_F(TraceTest, EmptyDependencyFieldMeansIndependent) {
  ASSERT_TRUE(WriteTrace(path_, {Txn(0, 1, 2, 3)}).ok());
  auto loaded = ReadTrace(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.ValueOrDie()[0].dependencies.empty());
}

TEST_F(TraceTest, MultipleDependenciesSeparatedBySemicolon) {
  ASSERT_TRUE(
      WriteTrace(path_, {Txn(0, 0, 1, 5), Txn(1, 0, 1, 5),
                         Txn(2, 0, 1, 5, 1.0, {0, 1})}).ok());
  auto loaded = ReadTrace(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie()[2].dependencies,
            (std::vector<TxnId>{0, 1}));
}

TEST_F(TraceTest, MissingFileFails) {
  auto loaded = ReadTrace("/nonexistent/trace.csv");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(TraceTest, BadHeaderRejected) {
  {
    std::ofstream out(path_);
    out << "id,arrival,length\n0,0,1\n";
  }
  auto loaded = ReadTrace(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("header"), std::string::npos);
}

TEST_F(TraceTest, WrongArityRejected) {
  {
    std::ofstream out(path_);
    out << "id,arrival,length,estimate,deadline,weight,deps\n0,0,1\n";
  }
  EXPECT_FALSE(ReadTrace(path_).ok());
}

TEST_F(TraceTest, NonDenseIdsRejected) {
  {
    std::ofstream out(path_);
    out << "id,arrival,length,estimate,deadline,weight,deps\n"
        << "0,0,1,0,5,1,\n"
        << "2,0,1,0,5,1,\n";
  }
  auto loaded = ReadTrace(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("dense"), std::string::npos);
}

TEST_F(TraceTest, GarbageNumbersRejected) {
  // strtod reads "nan" and "inf"; only the deadline may be infinite.
  for (const char* row :
       {"0,zero,1,0,5,1,", "0,nan,1,0,5,1,", "0,inf,1,0,5,1,",
        "0,0,nan,0,5,1,", "0,0,inf,0,5,1,", "0,0,1,nan,5,1,",
        "0,0,1,inf,5,1,", "0,0,1,0,nan,1,", "0,0,1,0,5,nan,",
        "0,0,1,0,5,inf,"}) {
    {
      std::ofstream out(path_);
      out << "id,arrival,length,estimate,deadline,weight,deps\n"
          << row << "\n";
    }
    EXPECT_FALSE(ReadTrace(path_).ok()) << row;
  }
}

TEST_F(TraceTest, InfiniteDeadlineAccepted) {
  {
    std::ofstream out(path_);
    out << "id,arrival,length,estimate,deadline,weight,deps\n"
        << "0,0,1,0,inf,1,\n";
  }
  auto loaded = ReadTrace(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_GT(loaded.ValueOrDie()[0].deadline, 1e308);
}

TEST_F(TraceTest, GarbageDependencyRejected) {
  // 4294967296 and 4294967297 are 2^32 and 2^32 + 1: truncated to a
  // TxnId they would name T0 and T1.
  for (const char* deps : {"0;x", "4294967296", "0;4294967297"}) {
    {
      std::ofstream out(path_);
      out << "id,arrival,length,estimate,deadline,weight,deps\n"
          << "0,0,1,0,5,1,\n"
          << "1,0,1,0,5,1," << deps << "\n";
    }
    EXPECT_FALSE(ReadTrace(path_).ok()) << deps;
  }
}

TEST_F(TraceTest, CommentsAndBlankLinesIgnored) {
  {
    std::ofstream out(path_);
    out << "# generated by test\n"
        << "id,arrival,length,estimate,deadline,weight,deps\n"
        << "\n"
        << "0,0,1,0,5,1,\n";
  }
  auto loaded = ReadTrace(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.ValueOrDie().size(), 1u);
}

TEST_F(TraceTest, EmptyFileRejected) {
  {
    std::ofstream out(path_);
  }
  EXPECT_FALSE(ReadTrace(path_).ok());
}

}  // namespace
}  // namespace webtx
