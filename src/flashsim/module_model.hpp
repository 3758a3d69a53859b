// Flash module timing models.
//
// The paper's evaluation needs exactly one number from its simulator: an
// 8 KB read takes 0.132507 ms on a flash module (the MSR SSD-extension
// parameter set). FixedLatencyModel reproduces that, with a separate page
// program time for mixed workloads. Every module serves one request at a
// time, FIFO.
#pragma once

#include <cstdint>
#include <memory>

#include "flashsim/request.hpp"
#include "util/time.hpp"

namespace flashqos::flashsim {

class ModuleModel {
 public:
  virtual ~ModuleModel() = default;

  /// Busy time the module spends serving one request.
  [[nodiscard]] virtual SimTime service_time(const IoRequest& req) const = 0;
};

/// Default 8 KB page program time. The paper's evaluation is read-only;
/// this figure (flash programs run slower than reads by small multiples)
/// enables the mixed-workload extension.
inline constexpr SimTime kPageWriteLatency = 200 * kMicrosecond;

/// One request costs pages × per-page latency, with separate read and
/// program figures. Default read latency is the paper's 0.132507 ms.
class FixedLatencyModel final : public ModuleModel {
 public:
  explicit FixedLatencyModel(SimTime read_per_page = kPageReadLatency,
                             SimTime write_per_page = kPageWriteLatency) noexcept
      : read_per_page_(read_per_page), write_per_page_(write_per_page) {}

  [[nodiscard]] SimTime service_time(const IoRequest& req) const override {
    return (req.is_write ? write_per_page_ : read_per_page_) * req.pages;
  }

 private:
  SimTime read_per_page_;
  SimTime write_per_page_;
};

}  // namespace flashqos::flashsim
