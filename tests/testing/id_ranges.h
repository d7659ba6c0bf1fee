#ifndef WEBTX_TESTS_TESTING_ID_RANGES_H_
#define WEBTX_TESTS_TESTING_ID_RANGES_H_

#include <vector>

#include "txn/dependency_graph.h"

namespace webtx::testing {

/// Copies an id range into a vector, so a test can compare it with
/// EXPECT_EQ and see both sides printed on failure.
template <typename Id>
std::vector<Id> ToVector(IdRange<Id> range) {
  return std::vector<Id>(range.begin(), range.end());
}

}  // namespace webtx::testing

#endif  // WEBTX_TESTS_TESTING_ID_RANGES_H_
