#include "parallel/parallel_hash_division.h"

#include "common/hash.h"
#include "gtest/gtest.h"
#include "parallel/bit_vector_filter.h"
#include "parallel/network.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace reldiv {
namespace {

TEST(InterconnectTest, CountsRemoteShipmentsOnly) {
  Interconnect net(4);
  ASSERT_OK(net.Ship(0, 0, 100));  // local, free
  ASSERT_OK(net.Ship(0, 1, 100));
  ASSERT_OK(net.Ship(2, 3, 50));
  EXPECT_EQ(net.messages(), 2u);
  EXPECT_EQ(net.bytes(), 150u);
  EXPECT_EQ(net.bytes_between(0, 1), 100u);
  EXPECT_EQ(net.bytes_between(1, 0), 0u);
  net.Reset();
  EXPECT_EQ(net.messages(), 0u);
}

TEST(InterconnectTest, BroadcastSkipsSelf) {
  Interconnect net(3);
  ASSERT_OK(net.Broadcast(1, 10));
  EXPECT_EQ(net.messages(), 2u);
  EXPECT_EQ(net.bytes(), 20u);
}

TEST(BitVectorFilterTest, NeverDropsInsertedHashes) {
  BitVectorFilter filter(256);
  for (uint64_t i = 0; i < 100; ++i) filter.InsertHash(Hash64(i));
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(filter.MayContain(Hash64(i)));
  }
}

TEST(BitVectorFilterTest, FiltersMostForeignHashes) {
  BitVectorFilter filter(4096);
  for (uint64_t i = 0; i < 64; ++i) filter.InsertHash(Hash64(i));
  size_t passed = 0;
  for (uint64_t i = 1000; i < 2000; ++i) {
    if (filter.MayContain(Hash64(i))) passed++;
  }
  EXPECT_LT(passed, 100u);  // ≤64/4096 fill → few false positives
}

class ParallelDivisionTest : public ::testing::Test {
 protected:
  GeneratedWorkload MakeWorkload(uint64_t seed) {
    WorkloadSpec spec;
    spec.divisor_cardinality = 20;
    spec.quotient_candidates = 60;
    spec.candidate_completeness = 0.4;
    spec.nonmatching_tuples = 50;
    spec.dividend_duplicates = 15;
    spec.divisor_duplicates = 4;
    spec.seed = seed;
    return GenerateWorkload(spec);
  }
};

TEST_F(ParallelDivisionTest, QuotientPartitioningMatchesReference) {
  GeneratedWorkload w = MakeWorkload(21);
  for (size_t nodes : {1, 2, 4, 7}) {
    ParallelDivisionOptions options;
    options.num_nodes = nodes;
    options.strategy = PartitionStrategy::kQuotient;
    ParallelHashDivisionEngine engine(options);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    EXPECT_EQ(Sorted(std::move(result.quotient)), w.expected_quotient)
        << nodes << " nodes";
  }
}

TEST_F(ParallelDivisionTest, DivisorPartitioningMatchesReference) {
  GeneratedWorkload w = MakeWorkload(22);
  for (size_t nodes : {1, 2, 4, 7}) {
    ParallelDivisionOptions options;
    options.num_nodes = nodes;
    options.strategy = PartitionStrategy::kDivisor;
    ParallelHashDivisionEngine engine(options);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    EXPECT_EQ(Sorted(std::move(result.quotient)), w.expected_quotient)
        << nodes << " nodes";
  }
}

TEST_F(ParallelDivisionTest, DecentralizedCollectionMatchesCentral) {
  GeneratedWorkload w = MakeWorkload(28);
  ParallelDivisionOptions options;
  options.num_nodes = 4;
  options.strategy = PartitionStrategy::kDivisor;
  options.decentralized_collection = true;
  ParallelHashDivisionEngine engine(options);
  ASSERT_OK_AND_ASSIGN(
      ParallelDivisionResult result,
      engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                     w.divisor, {1}));
  EXPECT_EQ(Sorted(std::move(result.quotient)), w.expected_quotient);
  // Tagged tuples now flow into several collectors, not only node 0.
  const Interconnect& net = engine.interconnect();
  size_t collectors_receiving = 0;
  for (size_t to = 0; to < 4; ++to) {
    uint64_t in_bytes = 0;
    for (size_t from = 0; from < 4; ++from) {
      in_bytes += net.bytes_between(from, to);
    }
    if (in_bytes > 0) collectors_receiving++;
  }
  EXPECT_GE(collectors_receiving, 2u);
}

TEST_F(ParallelDivisionTest, BitVectorFilterPreservesResultAndDropsTuples) {
  GeneratedWorkload w = MakeWorkload(23);  // has 50 non-matching tuples
  for (PartitionStrategy strategy :
       {PartitionStrategy::kQuotient, PartitionStrategy::kDivisor}) {
    ParallelDivisionOptions options;
    options.num_nodes = 4;
    options.strategy = strategy;
    options.use_bit_vector_filter = true;
    options.bit_vector_bits = 1 << 16;  // low collision odds
    ParallelHashDivisionEngine engine(options);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    EXPECT_EQ(Sorted(std::move(result.quotient)), w.expected_quotient);
    EXPECT_GT(result.tuples_filtered, 0u);
  }
}

TEST_F(ParallelDivisionTest, FilterReducesNetworkBytes) {
  GeneratedWorkload w = MakeWorkload(24);
  ParallelDivisionOptions base;
  base.num_nodes = 4;
  base.strategy = PartitionStrategy::kDivisor;
  uint64_t bytes_without = 0, bytes_with = 0;
  {
    ParallelHashDivisionEngine engine(base);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    bytes_without = result.network_bytes;
  }
  {
    ParallelDivisionOptions filtered = base;
    filtered.use_bit_vector_filter = true;
    filtered.bit_vector_bits = 1 << 16;
    ParallelHashDivisionEngine engine(filtered);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    // Subtract the filter broadcast itself to compare tuple traffic; the
    // point of §6 is that the dividend is the larger operand.
    bytes_with = result.network_bytes;
  }
  EXPECT_LT(bytes_with, bytes_without + (1 << 16) / 8 * 4 * 3);
}

TEST_F(ParallelDivisionTest, QuotientPartitioningReplicatesDivisor) {
  GeneratedWorkload w = MakeWorkload(25);
  ParallelDivisionOptions options;
  options.num_nodes = 4;
  options.strategy = PartitionStrategy::kQuotient;
  ParallelHashDivisionEngine engine(options);
  ASSERT_OK_AND_ASSIGN(
      ParallelDivisionResult result,
      engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                     w.divisor, {1}));
  (void)result;
  // Every ordered node pair exchanged divisor bytes during replication.
  const Interconnect& net = engine.interconnect();
  size_t pairs_with_traffic = 0;
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      if (i != j && net.bytes_between(i, j) > 0) pairs_with_traffic++;
    }
  }
  EXPECT_EQ(pairs_with_traffic, 12u);
}

TEST_F(ParallelDivisionTest, EmptyDivisorYieldsEmptyQuotient) {
  GeneratedWorkload w = MakeWorkload(26);
  for (PartitionStrategy strategy :
       {PartitionStrategy::kQuotient, PartitionStrategy::kDivisor}) {
    ParallelDivisionOptions options;
    options.num_nodes = 3;
    options.strategy = strategy;
    ParallelHashDivisionEngine engine(options);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend, {},
                       {1}));
    EXPECT_TRUE(result.quotient.empty());
  }
}

/// Everything a §6 run reports about its traffic and work, in one line:
/// the quotient in emission order, wire bytes and messages, shipped and
/// filtered tuples, each node's routed dividend tuples and the summed node
/// counters (comparisons/hashes/moves/bit_ops).
std::string Accounting(const ParallelDivisionResult& result) {
  std::string out = "quotient=";
  for (const Tuple& tuple : result.quotient) out += tuple.ToString();
  out += " bytes=" + std::to_string(result.network_bytes) +
         " messages=" + std::to_string(result.network_messages) +
         " shipped=" + std::to_string(result.tuples_shipped) +
         " filtered=" + std::to_string(result.tuples_filtered) + " nodes=";
  CpuCounters cpu;
  for (const NodeExecutionMetrics& node : result.node_metrics) {
    out += std::to_string(node.dividend_tuples) + ",";
    cpu += node.cpu;
  }
  return out + " cpu=" + std::to_string(cpu.comparisons) + "/" +
         std::to_string(cpu.hashes) + "/" + std::to_string(cpu.moves) + "/" +
         std::to_string(cpu.bit_ops);
}

TEST_F(ParallelDivisionTest, ReusedEngineReportsTrafficOfTheLastRun) {
  GeneratedWorkload w = MakeWorkload(29);
  for (PartitionStrategy strategy :
       {PartitionStrategy::kQuotient, PartitionStrategy::kDivisor}) {
    ParallelDivisionOptions options;
    options.num_nodes = 4;
    options.strategy = strategy;
    ParallelHashDivisionEngine engine(options);
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult first,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult second,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    EXPECT_GT(first.network_bytes, 0u);
    EXPECT_EQ(Accounting(second), Accounting(first));
    EXPECT_EQ(engine.interconnect().bytes(), second.network_bytes);
    EXPECT_EQ(engine.interconnect().messages(), second.network_messages);
  }
}

// The §6 accounting at four nodes, pinned: emission order, wire sizes,
// routing and local work are what E4 reports, so a change to the data path
// must leave every one of them as it is. The string-keyed runs ship
// variable-length rows (quotient names of 1 to 8 bytes).
TEST_F(ParallelDivisionTest, GoldenAccountingAtFourNodes) {
  const GeneratedWorkload ints = MakeWorkload(30);
  GeneratedWorkload strings = ints;
  strings.dividend_schema =
      Schema({{"name", ValueType::kString}, ints.dividend_schema.field(1)});
  for (Tuple& tuple : strings.dividend) {
    const int64_t id = tuple.value(0).int64();
    tuple = Tuple{Value::String(std::string(id % 7, 'x') + std::to_string(id)),
                  tuple.value(1)};
  }
  struct Golden {
    PartitionStrategy strategy;
    bool filter;
    bool decentralized;
    const GeneratedWorkload* workload;
    const char* accounting;
  };
  constexpr PartitionStrategy kQ = PartitionStrategy::kQuotient;
  constexpr PartitionStrategy kD = PartitionStrategy::kDivisor;
  const Golden goldens[] = {
      {kQ, false, false, &ints,
       "quotient=(23)(14)(8)(21)(10)(15)(20)(11)(7)(22)(18)(19)(5)(12)(9)"
       "(16)(17)(6)(3)(2)(4)(1)(0)(13) bytes=11696 messages=707"
       " shipped=695 filtered=0 nodes=145,338,193,245, cpu=2429/1888/0/991"},
      {kQ, true, false, &ints,
       "quotient=(23)(14)(8)(21)(10)(15)(20)(11)(7)(22)(18)(19)(5)(12)(9)"
       "(16)(17)(6)(3)(2)(4)(1)(0)(13) bytes=11072 messages=668"
       " shipped=656 filtered=50 nodes=134,320,180,237,"
       " cpu=2361/1838/0/991"},
      {kD, false, false, &ints,
       "quotient=(21)(16)(17)(10)(15)(19)(20)(6)(3)(2)(4)(5)(23)(1)(12)"
       "(14)(11)(7)(8)(0)(22)(9)(13)(18) bytes=12624 messages=799"
       " shipped=692 filtered=0 nodes=92,241,187,401, cpu=2211/1816/0/1299"},
      {kD, true, false, &ints,
       "quotient=(21)(16)(17)(10)(15)(19)(20)(6)(3)(2)(4)(5)(23)(1)(12)"
       "(14)(11)(7)(8)(0)(22)(9)(13)(18) bytes=18128 messages=771"
       " shipped=652 filtered=50 nodes=84,216,179,392,"
       " cpu=2143/1766/0/1299"},
      {kD, false, true, &ints,
       "quotient=(23)(14)(8)(21)(10)(15)(20)(11)(7)(22)(18)(19)(5)(12)(9)"
       "(16)(17)(6)(3)(2)(4)(1)(0)(13) bytes=12688 messages=803"
       " shipped=692 filtered=0 nodes=92,241,187,401, cpu=2211/1816/0/1299"},
      {kQ, true, false, &strings,
       "quotient=(x8)(xxxx11)(xx2)(x1)(xx23)(xx16)(xxxxx5)(xxxxx12)(0)(14)"
       "(xxxx4)(xxx3)(21)(xxx17)(xxxxxx13)(7)(x15)(xxxxx19)(xx9)(xxxxxx6)"
       "(xxxx18)(xxx10)(xxxxxx20)(x22) bytes=11763 messages=685"
       " shipped=673 filtered=50 nodes=196,254,238,183,"
       " cpu=2325/1838/0/991"},
      {kD, true, true, &strings,
       "quotient=(x8)(xxxx11)(xx2)(x1)(xx23)(xx16)(xxxxx5)(xxxxx12)(0)(14)"
       "(xxxx4)(xxx3)(21)(xxx17)(xxxxxx13)(7)(x15)(xxxxx19)(xx9)(xxxxxx6)"
       "(xxxx18)(xxx10)(x22)(xxxxxx20) bytes=18681 messages=775"
       " shipped=652 filtered=50 nodes=84,216,179,392,"
       " cpu=2115/1766/0/1299"},
  };
  for (const Golden& golden : goldens) {
    ParallelDivisionOptions options;
    options.num_nodes = 4;
    options.strategy = golden.strategy;
    options.use_bit_vector_filter = golden.filter;
    options.decentralized_collection = golden.decentralized;
    ParallelHashDivisionEngine engine(options);
    const GeneratedWorkload& w = *golden.workload;
    ASSERT_OK_AND_ASSIGN(
        ParallelDivisionResult result,
        engine.Execute(w.dividend_schema, w.divisor_schema, w.dividend,
                       w.divisor, {1}));
    EXPECT_EQ(Accounting(result), golden.accounting)
        << "golden row " << &golden - goldens;
  }
}

TEST_F(ParallelDivisionTest, RejectsArityMismatch) {
  GeneratedWorkload w = MakeWorkload(27);
  ParallelDivisionOptions options;
  ParallelHashDivisionEngine engine(options);
  auto result = engine.Execute(w.dividend_schema, w.divisor_schema,
                               w.dividend, w.divisor, {0, 1});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(ParallelDivisionTest, RefusesLocalOptionsItNeverReads) {
  GeneratedWorkload w = MakeWorkload(29);
  ParallelDivisionOptions options;
  options.division.parallel_fragments = 4;
  ParallelHashDivisionEngine engine(options);
  auto result = engine.Execute(w.dividend_schema, w.divisor_schema,
                               w.dividend, w.divisor, {1});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  // Refused before any shipment.
  EXPECT_EQ(engine.interconnect().messages(), 0u);
}

}  // namespace
}  // namespace reldiv
