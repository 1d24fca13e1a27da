#ifndef RELDIV_RELDIV_RELDIV_H_
#define RELDIV_RELDIV_RELDIV_H_

/// Umbrella header for the reldiv library: relational division — four
/// algorithms and their performance (Graefe, 1989) — on a WiSS/GAMMA-style
/// storage and query execution substrate.
///
/// Quickstart:
///   auto db = reldiv::Database::Open().MoveValue();
///   ... create tables, insert tuples ...
///   reldiv::DivisionQuery query{transcript, course_nos, {"course_no"}};
///   auto quotient = reldiv::Divide(db->ctx(), query,
///                                  reldiv::DivisionAlgorithm::kHashDivision);

#include "common/bitmap.h"
#include "common/result.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/tuple.h"
#include "common/value.h"
#include "cost/cost_model.h"
#include "cost/io_cost.h"
#include "division/division.h"
#include "division/hash_division.h"
#include "division/naive_division.h"
#include "division/partitioned_hash_division.h"
#include "exec/database.h"
#include "exec/filter.h"
#include "exec/hash_aggregate.h"
#include "exec/materialize.h"
#include "exec/mem_source.h"
#include "exec/operator.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "obs/event_log.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/profiled_operator.h"
#include "obs/telemetry.h"
#include "parallel/parallel_hash_division.h"
#include "planner/explain.h"
#include "planner/logical_plan.h"
#include "planner/physical_planner.h"
#include "planner/rewrite.h"
#include "workload/generator.h"
#include "workload/university.h"

#endif  // RELDIV_RELDIV_RELDIV_H_
