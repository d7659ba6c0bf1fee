#include "workload/streaming_generator.h"

#include "common/check.h"
#include "workload/generator.h"

namespace webtx {

Result<StreamingWorkloadGenerator> StreamingWorkloadGenerator::Create(
    const WorkloadSpec& spec, uint64_t seed) {
  WEBTX_ASSIGN_OR_RETURN(WorkloadGenerator gen,
                         WorkloadGenerator::Create(spec));
  return StreamingWorkloadGenerator(gen.Generate(seed));
}

TransactionSpec StreamingWorkloadGenerator::Next() {
  WEBTX_CHECK(!Done());
  return std::move(txns_[next_++]);
}

}  // namespace webtx
