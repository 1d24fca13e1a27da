#include "tests/test_util.h"

#include <map>

namespace reldiv {

std::vector<Tuple> ReferenceDivision(
    const std::vector<Tuple>& dividend, const std::vector<Tuple>& divisor,
    const std::vector<size_t>& match_attrs,
    const std::vector<size_t>& quotient_attrs) {
  // Distinct divisor tuples.
  std::set<Tuple> divisor_set(divisor.begin(), divisor.end());
  if (divisor_set.empty()) return {};

  // For each distinct quotient value, the set of matched divisor tuples.
  std::map<Tuple, std::set<Tuple>> matched;
  for (const Tuple& t : dividend) {
    Tuple key = t.Project(quotient_attrs);
    Tuple divisor_part = t.Project(match_attrs);
    if (divisor_set.count(divisor_part) != 0) {
      matched[std::move(key)].insert(std::move(divisor_part));
    }
  }
  std::vector<Tuple> quotient;
  for (const auto& [key, seen] : matched) {
    if (seen.size() == divisor_set.size()) quotient.push_back(key);
  }
  return quotient;  // std::map iteration → already sorted
}

std::vector<ScannedRecord> ScanRecords(RecordStore* store, size_t capacity) {
  std::vector<ScannedRecord> records;
  Result<std::unique_ptr<RecordScan>> scan = store->OpenScan();
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  if (!scan.ok()) return records;
  std::vector<RecordRef> refs(capacity);
  bool has_more = true;
  while (has_more) {
    size_t count = 0;
    const Status status =
        scan.value()->NextBatch(refs.data(), capacity, &count, &has_more);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (!status.ok()) break;
    for (size_t i = 0; i < count; ++i) {
      records.push_back({refs[i].rid, refs[i].payload.ToString()});
    }
  }
  EXPECT_OK(scan.value()->Close());
  return records;
}

}  // namespace reldiv
