#include "flashsim/flash_array.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace flashqos::flashsim {
namespace {

SimTime service_of(const ModuleModel& model, const IoRequest& req) {
  return req.service_override > 0 ? req.service_override : model.service_time(req);
}

}  // namespace

FlashArray::FlashArray(std::uint32_t devices, std::shared_ptr<const ModuleModel> model)
    : model_(std::move(model)), modules_(devices) {
  FLASHQOS_EXPECT(devices > 0, "array needs at least one module");
  FLASHQOS_EXPECT(model_ != nullptr, "array needs a timing model");
}

void FlashArray::submit(const IoRequest& req) {
  FLASHQOS_EXPECT(req.device < modules_.size(), "request device out of range");
  FLASHQOS_EXPECT(req.submit_time >= now_,
                  "cannot submit a request into the simulated past");
  FLASHQOS_EXPECT(req.pages >= 1, "request must read at least one page");
  events_.push(Event{.time = req.submit_time,
                     .seq = next_seq_++,
                     .type = EventType::kArrival,
                     .device = req.device,
                     .request = req,
                     .completion = {}});
}

void FlashArray::run_until(SimTime t) {
  while (!events_.empty() && events_.top().time <= t) {
    const Event e = events_.top();
    events_.pop();
    FLASHQOS_ASSERT(e.time >= now_, "event time regression");
    now_ = e.time;
    process(e);
  }
  now_ = std::max(now_, t);
}

void FlashArray::run() {
  // Drain every pending event but leave the clock at the last completion —
  // jumping to +infinity would forbid any further submissions.
  while (!events_.empty()) {
    const Event e = events_.top();
    events_.pop();
    FLASHQOS_ASSERT(e.time >= now_, "event time regression");
    now_ = e.time;
    process(e);
  }
}

void FlashArray::process(const Event& e) {
  Module& m = modules_[e.device];
  switch (e.type) {
    case EventType::kArrival:
      m.queue.push_back(e.request);
      try_start(e.device, e.time);
      break;
    case EventType::kCompletion:
      completions_.push_back(e.completion);
      m.busy = false;
      try_start(e.device, e.time);
      break;
  }
}

void FlashArray::try_start(DeviceId d, SimTime at) {
  Module& m = modules_[d];
  if (m.busy || m.queue.empty()) return;
  // An idle module's last completion was processed at or before `at`.
  const IoRequest req = m.queue.front();
  m.queue.pop_front();
  const SimTime finish = at + service_of(*model_, req);
  m.busy = true;
  events_.push(Event{.time = finish,
                     .seq = next_seq_++,
                     .type = EventType::kCompletion,
                     .device = d,
                     .request = {},
                     .completion = IoCompletion{.id = req.id,
                                                .device = d,
                                                .submit_time = req.submit_time,
                                                .start = at,
                                                .finish = finish}});
}

std::vector<IoCompletion> FlashArray::take_completions() {
  std::vector<IoCompletion> out;
  out.swap(completions_);
  return out;
}

}  // namespace flashqos::flashsim
