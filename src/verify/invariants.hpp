// Design-invariant verifier: machine-checked oracles for the structures the
// QoS guarantees depend on.
//
// The paper's deterministic bound S = (c-1)M² + cM is a theorem about an
// (N, c, 1) design; it silently stops holding if any structural property
// drifts — pair co-occurrence above 1, non-uniform replication, a bucket
// table that loses a rotation, a scheduler that reports fewer rounds than it
// uses. Every checker here recomputes its property from first principles
// (deliberately NOT reusing the implementation being checked) and returns a
// structured Report, so tests can use them as oracles and the
// `flashqos_verify` CLI can audit a deployment's design before it serves
// traffic.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "decluster/allocation.hpp"
#include "design/block_design.hpp"
#include "retrieval/schedule.hpp"
#include "util/types.hpp"

namespace flashqos::verify {

/// One named pass/fail result with a human-readable explanation.
struct Check {
  std::string name;
  bool passed = false;
  std::string detail;  // failure diagnosis, or a summary statistic on pass
};

/// Ordered collection of checks about one subject (a design, a scheme, ...).
class Report {
 public:
  explicit Report(std::string subject) : subject_(std::move(subject)) {}

  void add(std::string name, bool passed, std::string detail = {});
  /// Append another report's checks, prefixing their names with its subject.
  void merge(const Report& other);

  [[nodiscard]] const std::string& subject() const noexcept { return subject_; }
  [[nodiscard]] const std::vector<Check>& checks() const noexcept { return checks_; }
  [[nodiscard]] bool passed() const noexcept;
  [[nodiscard]] std::size_t failures() const noexcept;

  /// "PASS subject (n checks)" or a FAIL header plus one line per failed
  /// check; `verbose` lists passing checks too.
  [[nodiscard]] std::string to_string(bool verbose = false) const;

 private:
  std::string subject_;
  std::vector<Check> checks_;
};

/// Structural audit of a block design: block shape (uniform size, distinct
/// in-range points), pair co-occurrence at most once (the linear-space
/// property the retrieval guarantee needs), and — when the design covers
/// every pair — the Steiner counting identities r = (N-1)/(c-1) and
/// b = N(N-1)/(c(c-1)) with perfectly uniform point load.
[[nodiscard]] Report verify_design(const design::BlockDesign& d);

/// Consistency of the rotated bucket table against its source design: bucket
/// count, device-set preservation per rotation, each device primary exactly
/// once across a block's rotations, and (for Steiner designs) uniform
/// primary/total load.
[[nodiscard]] Report verify_bucket_table(const design::BlockDesign& d,
                                         bool use_rotations = true);

struct AllocationExpectations {
  /// Scheme is a (rotated) design-theoretic allocation: any two distinct
  /// buckets must share 0 devices, exactly 1 device, or the full replica
  /// set (rotations of one block).
  bool design_theoretic = false;
  /// Total and primary device loads must be exactly uniform.
  bool uniform_load = false;
};

/// Replica-table audit of any allocation scheme: distinct in-range replicas
/// per bucket, agreement with decluster::validate() (implementation
/// cross-check), plus the expectations above.
[[nodiscard]] Report verify_allocation(const decluster::AllocationScheme& s,
                                       const AllocationExpectations& expect = {});

/// BlockMapper audit: modulo fallback for unmapped blocks, FIM-table range
/// and determinism, first-placed frequent pair achieving the minimum
/// possible device overlap, and — on pairs mined from each model slice
/// (fim_oracle.hpp) — every block of the slice mapping as the reference
/// placement maps it.
[[nodiscard]] Report verify_block_mapper(const decluster::AllocationScheme& s,
                                         std::uint64_t seed = 1);

/// Independent schedule certificate (re-implemented on purpose — do not
/// defer to retrieval::valid_schedule): every request on one of its
/// replicas, no device serves two requests in one round, `rounds` is the
/// exact maximum. On failure, `why` (if non-null) explains.
[[nodiscard]] bool check_schedule(std::span<const BucketId> batch,
                                  const decluster::AllocationScheme& scheme,
                                  const retrieval::Schedule& schedule,
                                  std::string* why = nullptr);

struct RetrievalParams {
  std::size_t trials = 60;
  /// Largest sampled batch; 0 means 3 * devices.
  std::size_t max_batch = 0;
  std::uint64_t seed = 1;
};

/// Cross-checks the retrieval stack on sampled request sets: DTR schedules
/// are valid; the exact max-flow schedule is valid, meets the ⌈b/N⌉ lower
/// bound, and is minimal (infeasible in one round fewer); the combined
/// retrieve() path and the integrated incremental solver both land on the
/// optimum; degraded mode never routes to a failed device.
[[nodiscard]] Report verify_retrieval(const decluster::AllocationScheme& s,
                                      const RetrievalParams& params = {});

}  // namespace flashqos::verify
