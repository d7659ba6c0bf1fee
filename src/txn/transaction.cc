#include "txn/transaction.h"

#include <cmath>
#include <sstream>

namespace webtx {

std::string TransactionSpec::DebugString() const {
  std::ostringstream os;
  os << "T" << id << "{a=" << arrival << ", l=" << length
     << ", d=" << deadline << ", w=" << weight << ", deps=[";
  for (size_t i = 0; i < dependencies.size(); ++i) {
    if (i > 0) os << ",";
    os << dependencies[i];
  }
  os << "]}";
  return os.str();
}

Status CheckFinite(const TransactionSpec& t) {
  const auto reject = [&t](const char* field) {
    return Status::InvalidArgument("T" + std::to_string(t.id) + " has " +
                                   field);
  };
  if (!std::isfinite(t.arrival)) return reject("non-finite arrival time");
  if (!std::isfinite(t.length)) return reject("non-finite length");
  if (!std::isfinite(t.length_estimate)) {
    return reject("non-finite length estimate");
  }
  if (std::isnan(t.deadline)) return reject("NaN deadline");
  if (!std::isfinite(t.weight)) return reject("non-finite weight");
  return Status::OK();
}

}  // namespace webtx
