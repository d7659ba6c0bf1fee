#ifndef WEBTX_WORKLOAD_STREAMING_GENERATOR_H_
#define WEBTX_WORKLOAD_STREAMING_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "txn/transaction.h"
#include "workload/spec.h"

namespace webtx {

/// A cursor over WorkloadGenerator::Generate(seed): Next() hands out the
/// generated transactions in id order. It holds the whole vector, so it
/// saves no memory over Generate; new code calls Generate directly.
class StreamingWorkloadGenerator {
 public:
  /// Validates the spec and generates the workload.
  static Result<StreamingWorkloadGenerator> Create(const WorkloadSpec& spec,
                                                   uint64_t seed);

  bool Done() const { return next_ >= txns_.size(); }

  /// Moves out the next transaction. Must not be called when Done().
  TransactionSpec Next();

 private:
  explicit StreamingWorkloadGenerator(std::vector<TransactionSpec> txns)
      : txns_(std::move(txns)) {}

  std::vector<TransactionSpec> txns_;
  size_t next_ = 0;
};

}  // namespace webtx

#endif  // WEBTX_WORKLOAD_STREAMING_GENERATOR_H_
