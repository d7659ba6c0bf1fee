#include "workload/spec.h"

#include <cmath>

#include "common/distributions.h"

namespace webtx {

Status WorkloadSpec::Validate() const {
  if (num_transactions == 0) {
    return Status::InvalidArgument("num_transactions must be positive");
  }
  // Written as !(in range) so that NaN fails every check. An infinite
  // zipf_alpha (all-minimum lengths) or k_max (infinite deadlines) is a
  // well-defined limit and stays legal.
  if (!(zipf_alpha >= 0.0)) {
    return Status::InvalidArgument("zipf_alpha must be non-negative");
  }
  if (min_length < 1 || min_length > max_length) {
    return Status::InvalidArgument("length range must satisfy 1 <= min <= max");
  }
  if (!(k_max >= 0.0)) {
    return Status::InvalidArgument("k_max must be non-negative");
  }
  if (!(utilization > 0.0) || std::isinf(utilization)) {
    return Status::InvalidArgument("utilization must be positive and finite");
  }
  if (min_weight < 1 || min_weight > max_weight) {
    return Status::InvalidArgument("weight range must satisfy 1 <= min <= max");
  }
  if (max_workflow_length == 0) {
    return Status::InvalidArgument("max_workflow_length must be >= 1");
  }
  if (max_workflows_per_txn == 0) {
    return Status::InvalidArgument("max_workflows_per_txn must be >= 1");
  }
  if (!(burstiness >= 0.0 && burstiness < 1.0)) {
    return Status::InvalidArgument("burstiness must be in [0, 1)");
  }
  if (!(estimate_error >= 0.0 && estimate_error < 1.0)) {
    return Status::InvalidArgument("estimate_error must be in [0, 1)");
  }
  return Status::OK();
}

double WorkloadSpec::MeanLength() const {
  // Lengths are min_length - 1 + Zipf(alpha) over [1, max_length -
  // min_length + 1]; for the paper's min_length = 1 this is plain
  // Zipf(alpha) over [1, max_length].
  const ZipfDistribution zipf(max_length - min_length + 1, zipf_alpha);
  return static_cast<double>(min_length - 1) + zipf.Mean();
}

}  // namespace webtx
