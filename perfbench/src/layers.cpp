// The traced run: per-layer metrics measured from outside the program.
//
//  A. untraced repetitions of the workload's end-to-end path;
//  B. the same repetitions with spans around the benchmark's calls and the
//     registry counters the program publishes (reset before, read after);
//  C. standalone timings of single layers, replaying a prefix of the
//     workload's own inputs through each layer's public function.
#include <algorithm>
#include <numeric>

#include "bench.hpp"
#include "core/block_mapper.hpp"
#include "flashsim/flash_array.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "retrieval/retriever.hpp"
#include "service/pipeline_service.hpp"

namespace perfbench {

using namespace flashqos;

namespace {

double counter(const obs::MetricsSnapshot& snap, const char* name) {
  const auto* c = snap.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value) : 0.0;
}

const obs::HistogramSnapshot* stage(const obs::MetricsSnapshot& snap, const char* stage_name) {
  return snap.find_histogram("pipeline.interval_ns",
                             std::string("stage=\"") + stage_name + "\"");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Folds live verdicts of the service leg.
class CollectSink final : public service::ServedSink {
 public:
  CollectSink(OutcomeStats& stats, SimTime deadline) : stats_(stats), deadline_(deadline) {}
  void on_served(const service::Served& s) override {
    stats_.add(net::to_wire_completion(s.seq, s.out), s.out, deadline_);
  }

 private:
  OutcomeStats& stats_;
  SimTime deadline_;
};

bool same_wire(const net::WireEvent& a, const net::WireEvent& b) {
  return a.tag == b.tag && a.time == b.time && a.block == b.block && a.device == b.device &&
         a.size_blocks == b.size_blocks && a.tenant == b.tenant && a.flags == b.flags;
}

bool same_wire(const net::WireCompletion& a, const net::WireCompletion& b) {
  return a.tag == b.tag && a.arrival == b.arrival && a.dispatch == b.dispatch &&
         a.start == b.start && a.finish == b.finish && a.device == b.device &&
         a.q_ppm == b.q_ppm && a.tenant == b.tenant && a.path == b.path && a.flags == b.flags;
}

/// Encode and decode `items` in frames of 64 (span "net.codec"); true iff
/// every item decodes back to itself.
template <typename T, typename Encode, typename Decode>
bool codec_roundtrip(const std::vector<T>& items, SpanLog& log, Encode encode, Decode decode) {
  bool same = true;
  std::vector<T> back;
  for (std::size_t b = 0; b < items.size(); b += 64) {
    const std::size_t n = std::min<std::size_t>(64, items.size() - b);
    {
      Scoped span(&log, "net.codec");
      const std::string frame = encode(std::span(items).subspan(b, n));
      net::FrameReader reader;
      reader.feed(frame.data(), frame.size());
      const auto f = reader.next();
      same = same && f.has_value() && decode(*f, back);
    }
    same = same && back.size() == n;
    for (std::size_t i = 0; same && i < n; ++i) same = same_wire(back[i], items[b + i]);
  }
  return same;
}

}  // namespace

void run_traced(Workload& w, Setup& s, const Options& opt, Gates& g, Metrics& out,
                SpanLog& log, std::uint64_t& attempted) {
  auto& reg = obs::MetricRegistry::global();
  const SimTime T = s.cfg.qos_interval;
  const double phase_s = opt.seconds * 0.4;

  // A: untraced.
  std::vector<double> plain;
  std::vector<double> wall_ns_per_req;
  const double warmup_s = opt.tiny ? 0.0 : 1.0;
  repeat(w, s, warmup_s, phase_s, 2, nullptr, g, [&](const Rep& r, const OutcomeStats& st) {
    plain.push_back(static_cast<double>(st.outcomes) / r.wall_s);
    wall_ns_per_req.push_back(r.wall_s * 1e9 / static_cast<double>(st.outcomes));
    attempted += r.submitted;
  });

  // B: traced, counters accumulated over every traced repetition.
  reg.reset();
  const std::uint32_t b_first = log.run() + 1;
  std::vector<double> traced;
  double req_b = 0;
  double reads_b = 0;
  double sim_span_ns = 0;
  double fim_matched = 0;
  repeat(w, s, 0.0, phase_s, 2, &log, g, [&](const Rep& r, const OutcomeStats& st) {
    traced.push_back(static_cast<double>(st.outcomes) / r.wall_s);
    req_b += static_cast<double>(st.outcomes);
    reads_b += static_cast<double>(st.reads);
    sim_span_ns += static_cast<double>(st.last_finish - st.first_arrival);
    fim_matched += r.result.overall.fim_match_rate * static_cast<double>(r.result.overall.requests);
    attempted += r.submitted;
  });
  const SpanRuns b_only{b_first, log.run() + 1};
  const auto snap = reg.snapshot();

  // C1: in-process replay of a prefix, outcomes captured for the legs below.
  const std::size_t k_max = opt.tiny ? 4096 : 65536;
  const trace::Trace pre = prefix(w, s, std::min<std::size_t>(s.requests, k_max));
  const double k = static_cast<double>(pre.events.size());
  std::vector<core::RequestOutcome> captured;
  OutcomeStats pre_stats;
  log.next_run();
  const SpanRuns c1{log.run(), log.run() + 1};
  {
    Scoped root(&log, "leg.replay");
    trace::VectorCursor cursor(pre);
    Rep r;
    replay(s, cursor, pre_stats, r, &log, pre.events.size(), &captured);
    attempted += r.submitted;
  }
  double sink_ns = 0;
  {
    OutcomeStats st;
    StatsSink sink(st, T);
    const std::int64_t t0 = now_ns();
    {
      Scoped span(&log, "bench.sink");
      for (std::size_t i = 0; i < captured.size(); ++i) {
        sink.on_outcome(i, pre.events[i], captured[i]);
      }
    }
    sink_ns = static_cast<double>(now_ns() - t0) / k;
  }
  const bool wire = w.over_wire();
  const SpanRuns engine_runs = wire ? c1 : b_only;
  const double engine_req = wire ? k : req_b;

  g.check("layers: prefix outcomes captured in arrival order",
          captured.size() == pre.events.size() &&
              std::equal(captured.begin(), captured.end(), pre.events.begin(),
                         [](const core::RequestOutcome& o, const trace::TraceEvent& e) {
                           return o.arrival == e.time;
                         }));

  // C2: FIM mining, mapper rebuild and lookups, one reporting slice at a time.
  log.next_run();
  const SpanRuns c2{log.run(), log.run() + 1};
  // The engine's own slices: it mines and rebuilds once per reporting interval.
  const SimTime slice_len = pre.report_interval > 0 ? pre.report_interval : 1024 * T;
  std::map<SimTime, std::vector<fim::FrequentPair>> slice_pairs;  // by slice index
  double pairs_total = 0;
  {
    core::BlockMapper mapper(*s.scheme);
    std::uint64_t sum = 0;
    for (std::size_t b = 0; b < pre.events.size();) {
      std::size_t e = b;
      const SimTime slice = pre.events[b].time / slice_len;
      while (e < pre.events.size() && pre.events[e].time / slice_len == slice) ++e;
      auto& pairs = slice_pairs[slice];
      {
        Scoped span(&log, "fim.mine");
        pairs = core::mine_event_range(pre, b, e, T, s.cfg.fim_min_support);
      }
      pairs_total += static_cast<double>(pairs.size());
      {
        Scoped span(&log, "core.mapper.rebuild");
        mapper.rebuild(pairs);
      }
      {
        Scoped span(&log, "core.mapper.map");
        for (std::size_t i = b; i < e; ++i) sum += mapper.map(pre.events[i].block).bucket;
      }
      b = e;
    }
    g.check("layers: mapper mapped every prefix block", sum > 0 || pre.events.empty());
  }

  // C3: Retriever::schedule on the batches the engine admitted over the
  // prefix: the reads it dispatched at one instant, in arrival order,
  // duplicates included, each block mapped as the engine maps it at that
  // instant. Under FIM mapping that is the previous reporting slice's pairs
  // (C2's); under modulo mapping the mapper is never rebuilt.
  log.next_run();
  const SpanRuns c3{log.run(), log.run() + 1};
  const bool fim_mapped = s.cfg.mapping == core::MappingMode::kFim;
  std::map<SimTime, std::vector<std::size_t>> by_instant;
  for (std::size_t i = 0; i < captured.size(); ++i) {
    const auto& o = captured[i];
    if (!o.failed && !o.is_write && o.path != core::RetrievalPath::kShed) {
      by_instant[o.dispatch].push_back(i);
    }
  }
  std::vector<std::vector<BucketId>> batches;
  std::uint64_t matched = 0;
  std::uint64_t engine_matched = 0;
  {
    core::BlockMapper mapper(*s.scheme);
    SimTime mapped_slice = 0;
    for (const auto& [dispatch, ids] : by_instant) {
      const SimTime slice = dispatch / slice_len;
      if (fim_mapped && slice != mapped_slice) {
        const auto it = slice_pairs.find(slice - 1);
        mapper.rebuild(it != slice_pairs.end() ? std::span<const fim::FrequentPair>(it->second)
                                               : std::span<const fim::FrequentPair>());
        mapped_slice = slice;
      }
      auto& batch = batches.emplace_back();
      for (const auto i : ids) {
        const auto m = mapper.map(pre.events[i].block);
        batch.push_back(m.bucket);
        matched += m.matched ? 1U : 0U;
        engine_matched += captured[i].fim_matched ? 1U : 0U;
      }
    }
  }
  if (fim_mapped) {
    g.check("layers: retrieval batches mapped as the engine mapped them (FIM hits)",
            matched == engine_matched, pre.events.size());
  }
  {
    retrieval::Retriever retriever(*s.scheme, s.cfg.service_time);
    bool valid = true;
    bool same_path = true;
    auto ids = by_instant.begin();
    for (const auto& batch : batches) {
      const retrieval::Schedule* sched = nullptr;
      {
        Scoped span(&log, "retrieval.schedule");
        sched = &retriever.schedule(batch);
      }
      valid = valid && retrieval::valid_schedule(batch, *s.scheme, *sched);
      if (s.cfg.retrieval == core::RetrievalMode::kIntervalAligned) {
        const bool max_flow = sched->via == retrieval::SolvedBy::kMaxFlow;
        for (const auto i : (ids++)->second) {
          same_path = same_path && (captured[i].path == core::RetrievalPath::kAlignedMaxFlow) ==
                                       max_flow;
        }
      }
    }
    g.check("layers: every retrieval batch gets a valid schedule", valid);
    g.check("layers: retrieval batches take the engine's path (DTR or max-flow)", same_path);
  }

  // C4: served (device, start) pairs re-simulated on a fresh array.
  log.next_run();
  const SpanRuns c4{log.run(), log.run() + 1};
  double resim_reqs = 0;
  std::uint64_t resim_mismatch = 0;
  {
    std::vector<flashsim::IoRequest> reqs;
    for (std::size_t i = 0; i < captured.size(); ++i) {
      const auto& o = captured[i];
      if (o.failed || o.is_write || o.path == core::RetrievalPath::kShed) continue;
      reqs.push_back({.id = i, .device = o.device, .submit_time = o.start});
    }
    resim_reqs = static_cast<double>(reqs.size());
    std::vector<flashsim::IoCompletion> done;
    {
      Scoped span(&log, "flashsim.resim");
      flashsim::FlashArray array(
          s.scheme->devices(), std::make_shared<flashsim::FixedLatencyModel>(s.cfg.service_time));
      for (const auto& r : reqs) array.submit(r);
      array.run();
      done = array.take_completions();
    }
    for (const auto& c : done) {
      if (c.finish != captured[c.id].finish) ++resim_mismatch;
    }
    g.check("layers: re-simulated array finishes every served read",
            done.size() == reqs.size());
  }

  // C5: the prefix through the live service facade, no socket.
  log.next_run();
  const SpanRuns c5{log.run(), log.run() + 1};
  std::uint64_t live_clamped = 0;
  {
    service::ServiceOptions so;
    so.pipeline = s.cfg;
    so.meta = s.meta;
    service::PipelineService svc(*s.scheme, so);
    OutcomeStats st;
    CollectSink sink(st, T);
    bool ok = true;
    {
      Scoped span(&log, "service.live");
      ok = svc.start(sink);
      std::vector<std::uint64_t> tags(1024);
      for (std::size_t b = 0; ok && b < pre.events.size(); b += tags.size()) {
        const std::size_t n = std::min(tags.size(), pre.events.size() - b);
        std::iota(tags.begin(), tags.end(), b);
        Scoped submit(&log, "service.submit");
        ok = svc.submit(0, std::span(pre.events).subspan(b, n), std::span(tags).first(n));
      }
      if (!pre.events.empty()) svc.flush(pre.events.back().time + 1);
      (void)svc.drain();
    }
    live_clamped = svc.clamped_events();
    attempted += pre.events.size();
    g.check("layers: service leg == in-process replay (prefix)",
            ok && st.outcomes == pre.events.size() &&
                st.digest.value() == pre_stats.digest.value(),
            pre.events.size());
  }
  const double live_ns = log.total_ns("service.live", c5) / k;

  // C6: frame codec over the prefix's submits and completions.
  log.next_run();
  const SpanRuns c6{log.run(), log.run() + 1};
  {
    std::vector<net::WireEvent> evs(pre.events.size());
    std::vector<net::WireCompletion> comps(captured.size());
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const auto& e = pre.events[i];
      evs[i] = {.tag = i, .time = e.time, .block = e.block, .device = e.device,
                .size_blocks = e.size_blocks, .tenant = e.tenant,
                .flags = static_cast<std::uint8_t>(e.is_read ? 1 : 0)};
    }
    for (std::size_t i = 0; i < comps.size(); ++i) {
      comps[i] = net::to_wire_completion(i, captured[i]);
    }
    const bool ok =
        codec_roundtrip(evs, log, [](auto sp) { return net::encode_submit(sp); },
                        [](const net::Frame& f, auto& o) { return net::decode_submit(f, o); }) &&
        codec_roundtrip(comps, log, [](auto sp) { return net::encode_completions(sp); },
                        [](const net::Frame& f, auto& o) { return net::decode_completions(f, o); });
    g.check("layers: frame codec round trip exact", ok);
  }

  // The wire: daemon_wire's own end-to-end repetitions are the wire leg.
  // The in-process workloads send nothing over it (they are its bypass), so
  // their wire figures are 0.
  double wire_ns = 0;
  double client_wait_ns = 0;
  double frames_per_kreq = 0;
  double pushbacks = 0;
  if (wire) {
    wire_ns = best_quarter(wall_ns_per_req, false) - live_ns;
    client_wait_ns =
        (log.total_ns("net.client.pump", b_only) + log.total_ns("net.client.finish", b_only)) /
        req_b;
    frames_per_kreq = 1e3 * counter(snap, "net.submit_batches") / req_b;
    pushbacks = counter(snap, "net.pushbacks");
  }

  const auto* drain = stage(snap, "drain");
  const auto* ingest = stage(snap, "ingest");
  const double invocations = counter(snap, "retrieval.invocations");
  const double ws_builds = counter(snap, "retrieval.flow_ws.builds");
  const double ws_reuses = counter(snap, "retrieval.flow_ws.reuses");
  const auto add = [&](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  add("trace.fill_ns_per_req", log.total_ns("trace.fill", engine_runs) / engine_req, "ns");
  add("fim.mine_ns_per_req", log.total_ns("fim.mine", c2) / k, "ns");
  add("fim.pairs_per_req", pairs_total / k, "pairs/req");
  add("fim.match_ratio", ratio(fim_matched, reads_b), "ratio");
  add("core.mapper.rebuild_ns_per_pair",
      log.total_ns("core.mapper.rebuild", c2) / std::max(pairs_total, 1.0), "ns");
  add("core.mapper.map_ns_per_req", log.total_ns("core.mapper.map", c2) / k, "ns");
  add("core.engine_ns_per_req",
      log.self_ns("core.run_stream", engine_runs) / engine_req - sink_ns, "ns");
  add("core.drain_ns_per_req", drain ? static_cast<double>(drain->sum) / req_b : 0.0, "ns");
  add("core.ingest_ns_per_req", ingest ? static_cast<double>(ingest->sum) / req_b : 0.0, "ns");
  add("core.drain_call_max_ms", drain ? static_cast<double>(drain->max) / 1e6 : 0.0, "ms");
  add("core.deferral_events_per_req", counter(snap, "pipeline.deferral_events") / req_b,
      "events/req");
  add("core.deferred_ratio", ratio(counter(snap, "pipeline.deferred"), reads_b), "ratio");
  add("core.dispatches_per_req", counter(snap, "pipeline.dispatches") / req_b, "dispatch/req");
  add("retrieval.invocations_per_req", invocations / req_b, "calls/req");
  add("retrieval.fast_path_ratio", ratio(counter(snap, "retrieval.fast_path"), invocations),
      "ratio");
  add("retrieval.max_flow_per_kreq", 1e3 * counter(snap, "retrieval.max_flow_fallback") / req_b,
      "calls/kreq");
  add("retrieval.remap_moves_per_req", counter(snap, "retrieval.remap_moves") / req_b,
      "moves/req");
  add("retrieval.flow_ws_reuse_ratio", ratio(ws_reuses, ws_builds + ws_reuses), "ratio");
  add("retrieval.schedule_ns_per_call",
      log.total_ns("retrieval.schedule", c3) /
          static_cast<double>(std::max<std::size_t>(1, batches.size())),
      "ns");
  add("flashsim.submits_per_req", counter(snap, "flashsim.submits") / req_b, "submits/req");
  add("flashsim.device_busy_ratio",
      ratio(static_cast<double>(snap.counter_family_total("flashsim.device.busy_ns")),
            static_cast<double>(s.scheme->devices()) * sim_span_ns),
      "ratio");
  add("flashsim.resim_ns_per_req",
      log.total_ns("flashsim.resim", c4) / std::max(resim_reqs, 1.0), "ns");
  add("service.live_ns_per_req", live_ns, "ns");
  add("service.submit_wait_ns_per_req", log.total_ns("service.submit", c5) / k, "ns");
  add("service.clamped_events", wire ? counter(snap, "service.clamped_events")
                                     : static_cast<double>(live_clamped),
      "count");
  add("net.wire_ns_per_req", wire_ns, "ns");
  add("net.codec_ns_per_req", log.total_ns("net.codec", c6) / k, "ns");
  add("net.client_wait_ns_per_req", client_wait_ns, "ns");
  add("net.submit_frames_per_kreq", frames_per_kreq, "frames/kreq");
  add("net.pushbacks", pushbacks, "count");
  add("bench.sink_ns_per_req", sink_ns, "ns");
  add("bench.trace_overhead_pct",
      (best_quarter(plain, true) / best_quarter(traced, true) - 1.0) * 100.0, "%");
  std::printf("layers: prefix of %zu requests; re-simulation finish mismatches %llu\n",
              pre.events.size(), static_cast<unsigned long long>(resim_mismatch));
}

}  // namespace perfbench
