// Chunked/mmap streaming trace readers behind the TraceCursor interface.
//
// The in-memory readers (read_disksim_ascii / read_msr_csv) materialize
// O(trace) events before the first request replays. These cursors instead
// walk the bytes a chunk at a time — files through a read-only mmap so
// residency is the page cache's problem — and parse lines directly into the
// caller's fill() batch. Memory stays O(chunk + one straddled line)
// regardless of file size.
//
// Error handling is structured, not throwing: a line that fails to parse is
// skipped, counted in the `trace.parse_errors` counter, and recorded as a
// ParseDiag{line, message} (the first max_diags of them, 64 by default).
// The in-memory readers keep their throwing contract — both run the same
// per-line parsers (parse_disksim_line / parse_msr_row), so they accept
// exactly the same input.
//
// Cursor-specific preconditions (vs the in-memory readers):
//  * DisksimCursor: identical semantics; out-of-order / out-of-range events
//    become diagnostics instead of an end-of-parse throw.
//  * MsrCursor: requires an explicit volume count (the in-memory reader can
//    infer max-disk+1 only after seeing every row) and rows already sorted
//    by timestamp (the in-memory reader sorts; a streaming reader cannot).
//    Out-of-order rows are skipped with a diagnostic.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/cursor.hpp"
#include "trace/event.hpp"
#include "trace/mmap_file.hpp"
#include "trace/msr_format.hpp"
#include "util/sync.hpp"

namespace flashqos::obs {
template <typename Sync>
class BasicCounter;
}  // namespace flashqos::obs

namespace flashqos::trace {

/// One skipped input line: where and why.
struct ParseDiag {
  std::size_t line = 0;  // 1-based
  std::string message;
};

/// Byte supplier for the line scanner: successive chunks of the input.
/// An empty chunk means end of input. Chunks need only stay valid until
/// the next next_chunk()/reset() call.
class ByteSource {
 public:
  ByteSource() = default;
  ByteSource(const ByteSource&) = delete;
  ByteSource& operator=(const ByteSource&) = delete;
  virtual ~ByteSource() = default;

  [[nodiscard]] virtual std::string_view next_chunk() = 0;
  virtual void reset() = 0;
};

/// Serves a memory-mapped file in chunk_bytes slices (zero-copy).
class MmapByteSource final : public ByteSource {
 public:
  MmapByteSource(MappedFile file, std::size_t chunk_bytes)
      : file_(std::move(file)), chunk_bytes_(chunk_bytes) {}

  [[nodiscard]] std::string_view next_chunk() override;
  void reset() override { pos_ = 0; }

 private:
  MappedFile file_;
  std::size_t chunk_bytes_;
  std::size_t pos_ = 0;
};

/// Serves an owned string in chunk_bytes slices — the test seam for
/// chunk-boundary behavior (records straddling edges, CRLF, trailing
/// garbage) without touching the filesystem.
class MemoryByteSource final : public ByteSource {
 public:
  MemoryByteSource(std::string bytes, std::size_t chunk_bytes)
      : bytes_(std::move(bytes)), chunk_bytes_(chunk_bytes) {}

  [[nodiscard]] std::string_view next_chunk() override;
  void reset() override { pos_ = 0; }

 private:
  std::string bytes_;
  std::size_t chunk_bytes_;
  std::size_t pos_ = 0;
};

/// Base line-framing cursor: splits ByteSource chunks into lines (handling
/// lines that straddle chunk boundaries, CRLF endings, and a final line
/// without a newline), skips blank/'#' lines, and hands the rest to the
/// format-specific parse_line(). Enforces the cursor contract's ordering
/// invariant: an event that would make the stream unsorted (or point past
/// the volume count) is skipped with a diagnostic.
class LineCursor : public TraceCursor {
 public:
  [[nodiscard]] const TraceMeta& meta() const noexcept override {
    return meta_;
  }
  [[nodiscard]] std::size_t fill(std::span<TraceEvent> out) final;
  void reset() override;

  /// Lines skipped so far (monotone across the stream, cleared by reset).
  [[nodiscard]] std::size_t parse_errors() const noexcept {
    return parse_errors_;
  }
  /// First max_diags skipped lines, in input order.
  [[nodiscard]] const std::vector<ParseDiag>& diagnostics() const noexcept {
    return diags_;
  }

 protected:
  LineCursor(std::unique_ptr<ByteSource> src, TraceMeta meta,
             std::size_t max_diags);

  /// Parse one non-blank, non-comment line into `ev`; false = skip (the
  /// implementation already report()ed). Called in line order.
  [[nodiscard]] virtual bool parse_line(std::string_view line,
                                        TraceEvent& ev) = 0;
  /// Per-format state reset (called from reset()).
  virtual void restart() {}

  /// Record a skipped line at the current line number.
  void report(std::string message);

 private:
  [[nodiscard]] bool next_line(std::string_view& out);

  std::unique_ptr<ByteSource> src_;
  TraceMeta meta_;
  std::string_view chunk_;
  std::size_t chunk_pos_ = 0;
  std::string carry_;  // partial line straddling a chunk boundary
  bool carry_served_ = false;
  std::size_t line_no_ = 0;
  SimTime prev_time_ = 0;
  std::size_t parse_errors_ = 0;
  std::size_t max_diags_;
  std::vector<ParseDiag> diags_;
  bool at_eof_ = false;
  obs::BasicCounter<util::StdSyncPolicy>* bytes_counter_ = nullptr;
  obs::BasicCounter<util::StdSyncPolicy>* batches_counter_ = nullptr;
  obs::BasicCounter<util::StdSyncPolicy>* errors_counter_ = nullptr;
};

/// Streaming DiskSim ASCII cursor. Same accepted lines as
/// read_disksim_ascii (shared parser).
class DisksimCursor final : public LineCursor {
 public:
  DisksimCursor(std::unique_ptr<ByteSource> src, std::string name,
                std::uint32_t volumes, SimTime report_interval,
                std::size_t max_diags = 64)
      : LineCursor(std::move(src),
                   TraceMeta{std::move(name), volumes, report_interval},
                   max_diags) {}

 protected:
  [[nodiscard]] bool parse_line(std::string_view line, TraceEvent& ev) override;
};

/// Streaming MSR-Cambridge CSV cursor. Same accepted rows as read_msr_csv
/// (shared parser); requires opts.volumes != 0 and timestamp-sorted input.
class MsrCursor final : public LineCursor {
 public:
  MsrCursor(std::unique_ptr<ByteSource> src, std::string name,
            const MsrReadOptions& opts, std::size_t max_diags = 64);

 protected:
  [[nodiscard]] bool parse_line(std::string_view line, TraceEvent& ev) override;
  void restart() override { first_ts_ = -1; }

 private:
  MsrReadOptions opts_;
  std::int64_t first_ts_ = -1;
};

/// Open `path` as a streaming DiskSim cursor over a read-only mmap of the
/// file, served in 1 MiB chunks. Throws std::runtime_error when the file
/// cannot be opened.
[[nodiscard]] std::unique_ptr<DisksimCursor> open_disksim_cursor(
    const std::string& path, std::string name, std::uint32_t volumes,
    SimTime report_interval);

}  // namespace flashqos::trace
