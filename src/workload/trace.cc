#include "workload/trace.h"

#include <limits>
#include <sstream>
#include <string>

#include "common/csv.h"

namespace webtx {

namespace {

std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

Status WriteTrace(const std::string& path,
                  const std::vector<TransactionSpec>& txns) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(txns.size() + 1);
  rows.push_back({"id", "arrival", "length", "estimate", "deadline",
                  "weight", "deps"});
  for (const TransactionSpec& t : txns) {
    std::string deps;
    for (size_t i = 0; i < t.dependencies.size(); ++i) {
      if (i > 0) deps += ';';
      deps += std::to_string(t.dependencies[i]);
    }
    rows.push_back({std::to_string(t.id), FormatDouble(t.arrival),
                    FormatDouble(t.length), FormatDouble(t.length_estimate),
                    FormatDouble(t.deadline), FormatDouble(t.weight), deps});
  }
  return WriteCsvFile(path, rows);
}

Result<std::vector<TransactionSpec>> ReadTrace(const std::string& path) {
  WEBTX_ASSIGN_OR_RETURN(auto rows, ReadCsvFile(path));
  if (rows.empty()) {
    return Status::InvalidArgument("trace " + path + " is empty");
  }
  const std::vector<std::string> header = {
      "id", "arrival", "length", "estimate", "deadline", "weight", "deps"};
  if (rows[0] != header) {
    return Status::InvalidArgument("trace " + path + " has a bad header");
  }

  std::vector<TransactionSpec> txns;
  txns.reserve(rows.size() - 1);
  for (size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != 7) {
      return Status::InvalidArgument("trace row " + std::to_string(r) +
                                     " has " + std::to_string(row.size()) +
                                     " fields, want 7");
    }
    TransactionSpec t;
    WEBTX_ASSIGN_OR_RETURN(const long long id, ParseInt(row[0]));
    if (id < 0 || static_cast<size_t>(id) != txns.size()) {
      return Status::InvalidArgument(
          "trace ids must be dense and ascending; row " + std::to_string(r) +
          " has id " + row[0]);
    }
    t.id = static_cast<TxnId>(id);
    WEBTX_ASSIGN_OR_RETURN(t.arrival, ParseDouble(row[1]));
    WEBTX_ASSIGN_OR_RETURN(t.length, ParseDouble(row[2]));
    WEBTX_ASSIGN_OR_RETURN(t.length_estimate, ParseDouble(row[3]));
    WEBTX_ASSIGN_OR_RETURN(t.deadline, ParseDouble(row[4]));
    WEBTX_ASSIGN_OR_RETURN(t.weight, ParseDouble(row[5]));
    WEBTX_RETURN_NOT_OK(CheckFinite(t));
    if (!row[6].empty()) {
      std::istringstream deps(row[6]);
      std::string field;
      while (std::getline(deps, field, ';')) {
        WEBTX_ASSIGN_OR_RETURN(const long long dep, ParseInt(field));
        if (dep < 0) {
          return Status::InvalidArgument("negative dependency id in row " +
                                         std::to_string(r));
        }
        if (static_cast<unsigned long long>(dep) >
            std::numeric_limits<TxnId>::max()) {
          return Status::InvalidArgument(
              "T" + std::to_string(t.id) + " lists dependency id " + field +
              ", which does not fit in a transaction id");
        }
        t.dependencies.push_back(static_cast<TxnId>(dep));
      }
    }
    txns.push_back(std::move(t));
  }
  return txns;
}

}  // namespace webtx
