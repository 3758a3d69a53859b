#include "trace/stream_reader.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "trace/disksim_format.hpp"
#include "util/expect.hpp"

namespace flashqos::trace {

std::string_view MmapByteSource::next_chunk() {
  const std::string_view all = file_.view();
  if (pos_ >= all.size()) return {};
  const std::size_t n = std::min(chunk_bytes_, all.size() - pos_);
  const std::string_view out = all.substr(pos_, n);
  pos_ += n;
  return out;
}

std::string_view MemoryByteSource::next_chunk() {
  if (pos_ >= bytes_.size()) return {};
  const std::size_t n = std::min(chunk_bytes_, bytes_.size() - pos_);
  const std::string_view out = std::string_view(bytes_).substr(pos_, n);
  pos_ += n;
  return out;
}

LineCursor::LineCursor(std::unique_ptr<ByteSource> src, TraceMeta meta,
                       std::size_t max_diags)
    : src_(std::move(src)), meta_(std::move(meta)), max_diags_(max_diags) {
  if constexpr (obs::kEnabled) {
    auto& reg = obs::MetricRegistry::global();
    bytes_counter_ = &reg.counter("trace.stream.bytes");
    batches_counter_ = &reg.counter("trace.stream.batches");
    errors_counter_ = &reg.counter("trace.parse_errors");
  }
}

void LineCursor::report(std::string message) {
  ++parse_errors_;
  if constexpr (obs::kEnabled) errors_counter_->inc();
  if (diags_.size() < max_diags_) {
    // flashqos-lint: allow(hot-path-alloc): bounded diagnostic capture for skipped lines
    diags_.push_back(ParseDiag{line_no_, std::move(message)});
  }
}

bool LineCursor::next_line(std::string_view& out) {
  if (carry_served_) {
    carry_.clear();
    carry_served_ = false;
  }
  for (;;) {
    if (chunk_pos_ < chunk_.size()) {
      const std::size_t nl = chunk_.find('\n', chunk_pos_);
      if (nl != std::string_view::npos) {
        if (carry_.empty()) {
          out = chunk_.substr(chunk_pos_, nl - chunk_pos_);
        } else {
          // flashqos-lint: allow(hot-path-alloc): once per straddled line, O(line) bytes
          carry_.append(chunk_.data() + chunk_pos_, nl - chunk_pos_);
          out = carry_;
          carry_served_ = true;
        }
        chunk_pos_ = nl + 1;
        if (!out.empty() && out.back() == '\r') out.remove_suffix(1);
        return true;
      }
      // flashqos-lint: allow(hot-path-alloc): once per chunk boundary, O(line) bytes
      carry_.append(chunk_.data() + chunk_pos_, chunk_.size() - chunk_pos_);
      chunk_pos_ = chunk_.size();
    }
    if (at_eof_) {
      if (carry_.empty()) return false;
      out = carry_;
      carry_served_ = true;
      if (!out.empty() && out.back() == '\r') out.remove_suffix(1);
      return true;
    }
    chunk_ = src_->next_chunk();
    chunk_pos_ = 0;
    if (chunk_.empty()) {
      at_eof_ = true;
    } else if constexpr (obs::kEnabled) {
      bytes_counter_->inc(chunk_.size());
    }
  }
}

std::size_t LineCursor::fill(std::span<TraceEvent> out) {
  std::size_t written = 0;
  std::string_view line;
  while (written < out.size() && next_line(line)) {
    ++line_no_;
    if (line.empty() || line.front() == '#') continue;
    TraceEvent ev;
    if (!parse_line(line, ev)) continue;
    if (ev.time < prev_time_ || ev.time > kMaxEventTime ||
        (meta_.volumes != 0 && ev.device >= meta_.volumes)) {
      report("event out of order, or its time or device out of range");
      continue;
    }
    prev_time_ = ev.time;
    out[written++] = ev;
  }
  if constexpr (obs::kEnabled) {
    if (written > 0) batches_counter_->inc();
  }
  return written;
}

void LineCursor::reset() {
  src_->reset();
  chunk_ = {};
  chunk_pos_ = 0;
  carry_.clear();
  carry_served_ = false;
  line_no_ = 0;
  prev_time_ = 0;
  parse_errors_ = 0;
  diags_.clear();
  at_eof_ = false;
  restart();
}

bool DisksimCursor::parse_line(std::string_view line, TraceEvent& ev) {
  DisksimLine l;
  switch (parse_disksim_line(line, l)) {
    case DisksimParse::kMalformed:
      report("malformed line");
      return false;
    case DisksimParse::kBadSize:
      report("size not 8KB-aligned");
      return false;
    case DisksimParse::kOk:
      break;
  }
  ev = disksim_to_event(l);
  return true;
}

MsrCursor::MsrCursor(std::unique_ptr<ByteSource> src, std::string name,
                     const MsrReadOptions& opts, std::size_t max_diags)
    : LineCursor(std::move(src),
                 TraceMeta{std::move(name), opts.volumes, opts.report_interval},
                 max_diags),
      opts_(opts) {
  FLASHQOS_EXPECT(opts.volumes != 0,
                  "streaming MSR reader needs an explicit volume count");
  FLASHQOS_EXPECT(opts.block_bytes > 0, "block size must be positive");
}

bool MsrCursor::parse_line(std::string_view line, TraceEvent& ev) {
  MsrRow row;
  switch (parse_msr_row(line, opts_.reads_only, row)) {
    case MsrParse::kSkipped:
      return false;  // filtered, not an error
    case MsrParse::kTooFewColumns:
      report("too few columns");
      return false;
    case MsrParse::kMalformed:
      report("malformed row");
      return false;
    case MsrParse::kOk:
      break;
  }
  if (first_ts_ < 0) first_ts_ = row.ts;
  if (row.ts < first_ts_) {
    report("timestamps not sorted (streaming reader needs sorted input)");
    return false;
  }
  ev = TraceEvent{
      .time = msr_event_time(row.ts, first_ts_),
      .block = row.offset / opts_.block_bytes,
      .device = static_cast<DeviceId>(row.disk % opts_.volumes),
      .size_blocks = static_cast<std::uint32_t>(std::max<std::uint64_t>(
          1, (row.size + opts_.block_bytes - 1) / opts_.block_bytes)),
      .is_read = row.is_read};
  return true;
}

namespace {

std::unique_ptr<ByteSource> open_source(const std::string& path) {
  constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
  MappedFile f;
  if (!f.open(path)) throw std::runtime_error("trace open: " + f.error());
  // flashqos-lint: allow(hot-path-alloc): one-time cursor construction
  return std::make_unique<MmapByteSource>(std::move(f), kChunkBytes);
}

}  // namespace

std::unique_ptr<DisksimCursor> open_disksim_cursor(const std::string& path,
                                                   std::string name,
                                                   std::uint32_t volumes,
                                                   SimTime report_interval) {
  // flashqos-lint: allow(hot-path-alloc): one-time cursor construction
  return std::make_unique<DisksimCursor>(open_source(path), std::move(name),
                                         volumes, report_interval);
}

}  // namespace flashqos::trace
