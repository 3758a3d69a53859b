// Per-thread retrieval scratch: every buffer the combined DTR + max-flow
// retrieval path needs, owned in one place so steady-state dispatch is
// allocation-free.
//
// The scratch-taking overloads of dtr_schedule / retrieve /
// optimal_makespan_schedule return references (or pointers) into the
// scratch; the result is valid until the next call through the same
// scratch. The value-returning overloads remain available and are
// bit-identical — they simply run the same code over a throwaway scratch.
// A scratch is not thread-safe: QosPipeline owns one per pipeline instance
// (a replay runs on one thread), the P_k sampler one per request size,
// OnlineRetriever one per retriever.
#pragma once

#include <cstdint>
#include <vector>

#include "retrieval/maxflow.hpp"
#include "retrieval/schedule.hpp"
#include "util/time.hpp"

namespace flashqos::retrieval {

struct RetrievalScratch {
  /// The reusable max-flow network (CSR graph + solver buffers).
  FlowWorkspace flow;

  /// DTR per-device load counters and round-dealing cursors.
  std::vector<std::uint32_t> load;
  std::vector<std::uint32_t> rounds;

  /// Result slots: `dtr` holds the fast-path schedule, `exact` the
  /// max-flow schedule. retrieve() returns a reference to one of them.
  Schedule dtr;
  Schedule exact;

  /// Heterogeneous min-makespan solver buffers.
  std::vector<std::int64_t> caps;
  std::vector<DeviceId> devices;
  std::vector<SimTime> candidates;
  std::vector<SimTime> cursor;
};

}  // namespace flashqos::retrieval
