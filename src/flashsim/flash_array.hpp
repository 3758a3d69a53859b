// Discrete-event simulator of a flash storage array.
//
// The array is N flash modules behind a controller (paper Fig. 1). Each
// module serves one request at a time, FIFO, with a pluggable timing
// model. The simulator is a classic event-driven core:
// a time-ordered heap of arrival/completion events, deterministic
// tie-breaking by submission sequence, integer-nanosecond clock.
//
// This is the substitute for the paper's modified DiskSim + MSR SSD
// extension; see DESIGN.md for the substitution argument. The replay
// engine keeps its own per-device model; this simulator is the reference
// it is checked against (src/verify/resim_oracle) and the substrate of the
// original-volume baseline (core::replay_original).
#pragma once

#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "flashsim/module_model.hpp"
#include "flashsim/request.hpp"

namespace flashqos::flashsim {

class FlashArray {
 public:
  FlashArray(std::uint32_t devices, std::shared_ptr<const ModuleModel> model);
  FlashArray(const FlashArray&) = delete;
  FlashArray& operator=(const FlashArray&) = delete;

  [[nodiscard]] std::uint32_t devices() const noexcept {
    return static_cast<std::uint32_t>(modules_.size());
  }

  /// Submit a request. Requests may arrive in any order as long as their
  /// submit_time is not before the simulated clock (events already
  /// processed cannot be rewritten).
  void submit(const IoRequest& req);

  /// Advance the simulation, processing every event with time <= t.
  void run_until(SimTime t);

  /// Drain all pending work (runs to quiescence).
  void run();

  /// Simulated clock: time of the last processed event.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Completions recorded so far, in completion order. take_completions()
  /// hands them off and clears the internal buffer.
  [[nodiscard]] const std::vector<IoCompletion>& completions() const noexcept {
    return completions_;
  }
  [[nodiscard]] std::vector<IoCompletion> take_completions();

 private:
  struct Module {
    std::deque<IoRequest> queue;  // waiting, FIFO
    bool busy = false;            // a request is in service, its completion pending
  };

  enum class EventType : std::uint8_t { kArrival, kCompletion };

  struct Event {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among simultaneous events
    EventType type;
    DeviceId device;
    IoRequest request;        // kArrival payload
    IoCompletion completion;  // kCompletion payload

    bool operator>(const Event& other) const noexcept {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  void process(const Event& e);
  void try_start(DeviceId d, SimTime at);

  std::shared_ptr<const ModuleModel> model_;
  std::vector<Module> modules_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::vector<IoCompletion> completions_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace flashqos::flashsim
