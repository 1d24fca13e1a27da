#include "cost/cost_model.h"

#include <cmath>

namespace reldiv {

AnalyticalConfig AnalyticalConfig::Paper(double divisor_tuples,
                                         double quotient_tuples) {
  AnalyticalConfig config;
  config.divisor_tuples = divisor_tuples;
  config.quotient_tuples = quotient_tuples;
  config.dividend_tuples = divisor_tuples * quotient_tuples;  // R = Q × S
  config.divisor_pages = divisor_tuples / 10.0;
  config.quotient_pages = quotient_tuples / 10.0;
  config.dividend_pages = config.dividend_tuples / 5.0;
  config.memory_pages = 100;
  config.avg_bucket_size = 2;
  return config;
}

double CostModel::QuicksortCost(double tuples) const {
  if (tuples <= 1) return 0;
  return 2 * tuples * std::log2(tuples) * units_.comp_ms;
}

double CostModel::MergePasses(double pages,
                              const AnalyticalConfig& config) const {
  const double m = config.memory_pages;
  const double raw = std::log(pages / m) / std::log(m);
  switch (config.merge_pass_mode) {
    case MergePassMode::kPaperTable2:
      return std::max(1.0, std::floor(raw));
    case MergePassMode::kCeiling:
      return std::max(1.0, std::ceil(raw));
  }
  return 1.0;
}

double CostModel::ExternalSortCost(double tuples, double pages,
                                   const AnalyticalConfig& config) const {
  const double m = config.memory_pages;
  const double passes = MergePasses(pages, config);
  const double per_pass =
      pages * (2 * units_.rio_ms + units_.move_ms) +
      tuples * std::log2(m) * units_.comp_ms;
  const double run_formation =
      2 * tuples * std::log2(tuples * m / pages) * units_.comp_ms;
  return passes * per_pass + run_formation;
}

double CostModel::SortCost(double tuples, double pages,
                           const AnalyticalConfig& config) const {
  if (pages <= config.memory_pages) return QuicksortCost(tuples);
  return ExternalSortCost(tuples, pages, config);
}

double CostModel::NaiveDivisionCost(const AnalyticalConfig& config) const {
  const double sort_r =
      SortCost(config.dividend_tuples, config.dividend_pages, config);
  const double sort_s =
      SortCost(config.divisor_tuples, config.divisor_pages, config);
  const double division =
      (config.dividend_pages + config.divisor_pages) * units_.sio_ms +
      config.dividend_tuples * units_.comp_ms;
  return sort_r + sort_s + division;
}

double CostModel::SortAggregationCost(const AnalyticalConfig& config,
                                      bool with_join) const {
  // No-join form: sort of the dividend (with aggregation in the final merge,
  // costing |R| Comp), the counting scan of the divisor (s SIO),
  // and the divisor's own sort.
  const double sort_r =
      SortCost(config.dividend_tuples, config.dividend_pages, config);
  const double sort_s =
      SortCost(config.divisor_tuples, config.divisor_pages, config);
  const double aggregation = config.dividend_tuples * units_.comp_ms;
  const double scalar = config.divisor_pages * units_.sio_ms;
  const double no_join = sort_r + sort_s + aggregation + scalar;
  if (!with_join) return no_join;
  // With join: the dividend is sorted twice (once on the divisor attrs for
  // the merge join, once on the quotient attrs for aggregation), making the
  // plan cost twice the no-join pipeline plus the merging scan itself:
  //   (r + s) SIO + |R|·|S| Comp  (§4.3, R = Q × S case).
  const double merge_scan =
      (config.dividend_pages + config.divisor_pages) * units_.sio_ms +
      config.dividend_tuples * config.divisor_tuples * units_.comp_ms;
  return 2 * no_join + merge_scan;
}

double CostModel::HashAggregationCost(const AnalyticalConfig& config,
                                      bool with_join) const {
  // r SIO + |R| (Hash + hbs Comp) + s SIO (counting scan of the divisor).
  const double probe_each =
      units_.hash_ms + config.avg_bucket_size * units_.comp_ms;
  const double no_join = config.dividend_pages * units_.sio_ms +
                         config.dividend_tuples * probe_each +
                         config.divisor_pages * units_.sio_ms;
  if (!with_join) return no_join;
  // Semi-join: (s + r) SIO + |S| Hash + |R| (Hash + hbs Comp); the
  // aggregation then re-reads the (same-sized) join output.
  const double semi_join =
      (config.divisor_pages + config.dividend_pages) * units_.sio_ms +
      config.divisor_tuples * units_.hash_ms +
      config.dividend_tuples * probe_each;
  return no_join + semi_join;
}

double CostModel::HashDivisionCost(const AnalyticalConfig& config) const {
  // (r + s) SIO + |S| Hash + |R| (2 (Hash + hbs Comp) + Bit).
  const double probe_each =
      units_.hash_ms + config.avg_bucket_size * units_.comp_ms;
  return (config.dividend_pages + config.divisor_pages) * units_.sio_ms +
         config.divisor_tuples * units_.hash_ms +
         config.dividend_tuples * (2 * probe_each + units_.bit_ms);
}

std::vector<Table2Row> ComputeTable2(const CostUnits& units,
                                     MergePassMode mode) {
  CostModel model(units);
  const int sizes[] = {25, 100, 400};
  std::vector<Table2Row> rows;
  for (int s : sizes) {
    for (int q : sizes) {
      AnalyticalConfig config = AnalyticalConfig::Paper(s, q);
      config.merge_pass_mode = mode;
      Table2Row row;
      row.divisor_tuples = s;
      row.quotient_tuples = q;
      row.naive = model.NaiveDivisionCost(config);
      row.sort_agg = model.SortAggregationCost(config, /*with_join=*/false);
      row.sort_agg_join =
          model.SortAggregationCost(config, /*with_join=*/true);
      row.hash_agg = model.HashAggregationCost(config, /*with_join=*/false);
      row.hash_agg_join =
          model.HashAggregationCost(config, /*with_join=*/true);
      row.hash_div = model.HashDivisionCost(config);
      rows.push_back(row);
    }
  }
  return rows;
}

double CpuCostMs(const CpuCounters& counters, const CostUnits& units) {
  return static_cast<double>(counters.comparisons) * units.comp_ms +
         static_cast<double>(counters.hashes) * units.hash_ms +
         static_cast<double>(counters.moves) * units.move_ms +
         static_cast<double>(counters.bit_ops) * units.bit_ms;
}

const std::vector<Table2Row>& PaperTable2() {
  static const std::vector<Table2Row> rows{
      {25, 25, 9949, 8074, 18529, 1969, 3938, 2028},
      {25, 100, 39663, 32163, 73738, 7763, 15526, 7996},
      {25, 400, 158517, 128517, 294572, 30938, 61876, 31868},
      {100, 25, 39808, 32308, 79766, 7875, 15753, 8111},
      {100, 100, 158662, 128662, 317475, 31050, 62103, 31983},
      {100, 400, 634080, 514080, 1268311, 123750, 247503, 127473},
      {400, 25, 159280, 129280, 409160, 31500, 63012, 32442},
      {400, 100, 634698, 514698, 1629996, 124200, 248412, 127932},
      {400, 400, 2536369, 2056369, 6513339, 495000, 990012, 509892},
  };
  return rows;
}

}  // namespace reldiv
