// LogLens ledger: one command that drives a LogLensService through five
// fixed phases on a named workload and prints, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   ledger_bench --workload <trace_stream|template_scale>
//                --seed <n> --seconds <s> --trace <0|1> [--plant <check>]
//
// Phases (identical for every workload, see README.md):
//   1. set-up     build v1 with ModelBuilder::build, deploy it, let it land;
//                 build v2 = v1 + one probe template (untimed)
//   2. ingest     closed loop at 1 partition/1 worker, then 4/4: the test
//                 split plus interleaved probe lines, sent in fixed chunks
//                 through one Agent per host, drain() after each chunk
//   3. paced      open loop at 4/4: a fixed offered rate and batch interval,
//                 v2/v1 deployed alternately at evenly spaced points
//   4. post-facto replay_archive per source, anomaly-store term queries,
//                 LogStore::fetch per source
//   5. memory     peak RSS
//
// --trace 0 prints the end-to-end metrics; the benchmark records no spans.
// --trace 1 runs the same phases with the benchmark's own spans around its
// calls into the service, then times each layer's public entry points in
// isolation on the same inputs (the ladder), prints the per-layer metrics
// and writes every span to .bench_build/ledger-out/spans-<workload>-<seed>.json.
//
// Every correctness check compares against truth the program does not
// compute (the generator's ground truth, the counts the benchmark itself
// sent, a scan of the store). --plant <check> shifts that check's expected
// value so the run must fail: it shows the check can fail at all. Any failed
// check makes the run print "correct": false and exit 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "automata/detector.h"
#include "broker/broker.h"
#include "datagen/datasets.h"
#include "parser/log_parser.h"
#include "service/service.h"
#include "service/wire.h"
#include "storage/stores.h"
#include "streaming/engine.h"
#include "timestamp/recognizer.h"
#include "tokenize/preprocessor.h"

namespace {

using namespace loglens;
using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main(): set-up time runs from
// here, so it covers the process's cold start.
const Clock::time_point kProcessStart = Clock::now();

// Spans and the ladder's segment store go here, relative to the checkout.
constexpr const char* kOutDir = ".bench_build/ledger-out";

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms_since(int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::string dataset;      // datagen family, also the discovery preset key
  double scale;             // make_* scale factor
  std::string host_prefix;  // token prefix naming the shipping host
  double offered_per_s;     // open loop: offered rate
  int updates;              // open loop: model updates per pass (even)
  size_t expect_patterns;   // v1 pattern count (0: not checked)
  bool check_sequence;      // flagged event ids must equal the ground truth
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"trace_stream", "D1", 2.0, "host-", 20000, 8, 0, true},
      {"template_scale", "D4", 0.05, "node-", 10000, 2, 3234, false},
  };
  return kAll;
}

Dataset make_workload_dataset(const Workload& w, uint64_t seed) {
  return w.dataset == "D1" ? make_d1(w.scale, seed) : make_d4(w.scale, seed);
}

// Closed loop: lines per send+drain round trip, and dataset lines per probe
// line. Open loop: the batch interval.
constexpr size_t kChunk = 256;
constexpr size_t kProbeEvery = 997;
constexpr int64_t kIntervalMs = 5;

// The probe template: shaped like no dataset line (four tokens, all
// literal, no timestamp), so v1 leaves it unparsed, v2 parses it, and it
// carries no event id for the sequence detector.
constexpr std::string_view kProbeLine = "LEDGER-PROBE canary marker ok";
constexpr std::string_view kProbeSource = "ledger-probe";
constexpr int kProbeTrainingCopies = 3;
// Log time a final heartbeat_advance moves every source by, past every
// learned duration.
constexpr int64_t kFarAdvanceMs = 24LL * 3600 * 1000;

// ---------------------------------------------------------------------------
// The benchmark's own spans: name, start, end, parent. Kept in memory and
// written out at the end; recording is off in --trace 0 runs.

class SpanLog {
 public:
  struct Record {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t items = 0;  // work units (logs, messages) the span covered
  };

  explicit SpanLog(bool on) : on_(on) {}
  bool on() const { return on_; }

  uint64_t open(std::string name) {
    if (!on_) return 0;
    Record r;
    r.name = std::move(name);
    r.id = records_.size() + 1;
    r.parent = stack_.empty() ? 0 : stack_.back();
    r.start_ns = now_ns();
    records_.push_back(std::move(r));
    stack_.push_back(records_.back().id);
    return records_.back().id;
  }

  void close(uint64_t id, uint64_t items) {
    if (id == 0) return;
    Record& r = records_[id - 1];
    r.end_ns = now_ns();
    r.items = items;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  double seconds(uint64_t id) const {
    if (id == 0) return 0;
    const Record& r = records_[id - 1];
    return static_cast<double>(r.end_ns - r.start_ns) / 1e9;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << "[\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "{\"name\":\"" << r.name << "\",\"id\":" << r.id
          << ",\"parent\":" << r.parent << ",\"start_ns\":" << r.start_ns
          << ",\"end_ns\":" << r.end_ns << ",\"items\":" << r.items << "}"
          << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  bool on_;
  std::vector<Record> records_;
  std::vector<uint64_t> stack_;
};

class Span {
 public:
  Span(SpanLog& log, std::string name) : log_(log), id_(log.open(std::move(name))) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_items(uint64_t n) { items_ = n; }
  // Ends the span now (idempotent); returns its length in seconds.
  double close() {
    if (!closed_) {
      log_.close(id_, items_);
      closed_ = true;
    }
    return log_.seconds(id_);
  }

 private:
  SpanLog& log_;
  uint64_t id_;
  uint64_t items_ = 0;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Correctness checks and operation accounting

class Checks {
 public:
  explicit Checks(std::string planted) : planted_(std::move(planted)) {}

  // The expected value, shifted when `check` is the planted one.
  size_t expect(const std::string& check, size_t value) const {
    return check == planted_ ? value + 1 : value;
  }
  std::set<std::string> expect(const std::string& check,
                               std::set<std::string> ids) const {
    if (check == planted_) ids.insert("planted-wrong-id");
    return ids;
  }
  // A yes/no check: planted, it expects the opposite answer.
  bool expect_true(const std::string& check) const {
    return check != planted_;
  }

  void require(const std::string& check, bool ok, const std::string& detail) {
    evaluated_.insert(check);
    if (ok) return;
    if (failures_.insert(check).second) {
      std::fprintf(stderr, "ledger: CHECK FAILED %s: %s\n", check.c_str(),
                   detail.c_str());
    }
  }

  bool ok() const { return failures_.empty(); }
  bool planted_evaluated() const {
    return planted_.empty() || evaluated_.contains(planted_);
  }

 private:
  std::string planted_;
  std::set<std::string> evaluated_;
  std::set<std::string> failures_;
};

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Ops {
  OpCount lines;    // log lines sent (dataset + probe)
  OpCount updates;  // model deployments in the paced phase
  OpCount queries;  // post-facto replays, term queries and fetches
};

std::string describe(size_t got, size_t want) {
  return "got " + std::to_string(got) + ", want " + std::to_string(want);
}

std::string describe(const std::set<std::string>& got,
                     const std::set<std::string>& want) {
  size_t missing = 0;
  size_t extra = 0;
  for (const auto& id : want) missing += got.contains(id) ? 0 : 1;
  for (const auto& id : got) extra += want.contains(id) ? 0 : 1;
  return std::to_string(got.size()) + " ids against " +
         std::to_string(want.size()) + " (" + std::to_string(missing) +
         " missing, " + std::to_string(extra) + " extra)";
}

// ---------------------------------------------------------------------------
// Run context

struct Models {
  CompositeModel v1;
  CompositeModel v2;
  BuildResult build;
  double build_s = 0;
};

struct Measurements {
  double setup_s = 0;
  double datagen_s = 0;
  std::vector<double> ingest_1p_ns_per_log;        // untraced rounds
  std::vector<double> ingest_1p_traced_ns_per_log;  // rounds with spans on
  std::vector<double> ingest_4p_ns_per_log;
  // Per paced pass: the pass's p50 and p99 over its lines.
  std::vector<double> latency_p50_ms;
  std::vector<double> latency_p99_ms;
  size_t latency_samples = 0;
  std::vector<double> update_ms;
  std::vector<double> deploy_ms;
  std::vector<double> tick_drain_us;
  std::vector<double> generator_late_ms;
  std::vector<double> replay_ms;
  std::vector<double> query_ms;
  std::vector<double> storage_query_ms;
  std::vector<double> segments_pruned;
  std::vector<double> docs_scanned;
  std::vector<double> empty_drain_us;
  double retained_msgs = 0;
};

struct Ctx {
  const Workload& w;
  uint64_t seed = 0;
  std::string run_dir;  // the ladder's segment directories
  Dataset ds;
  std::vector<std::string> sources;  // agent names, sorted
  std::vector<uint32_t> source_of;   // test line -> index into sources
  Models models;
  Checks checks;
  Ops ops;
  SpanLog spans;
  Measurements m;
  int dirs_made = 0;

  std::string fresh_dir(const char* tag) {
    return run_dir + "/" + tag + "-" + std::to_string(dirs_made++);
  }
};

std::string host_of(std::string_view line, std::string_view prefix) {
  size_t pos = 0;
  while (pos < line.size()) {
    size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    std::string_view tok = line.substr(pos, end - pos);
    if (tok.starts_with(prefix)) return std::string(tok);
    pos = end + 1;
  }
  return "unknown-host";
}

void index_sources(Ctx& c) {
  std::vector<std::string> hosts;
  hosts.reserve(c.ds.testing.size());
  std::set<std::string> unique;
  for (const auto& line : c.ds.testing) {
    hosts.push_back(host_of(line, c.w.host_prefix));
    unique.insert(hosts.back());
  }
  c.sources.assign(unique.begin(), unique.end());
  std::map<std::string, uint32_t> index;
  for (uint32_t i = 0; i < c.sources.size(); ++i) index[c.sources[i]] = i;
  c.source_of.reserve(hosts.size());
  for (const auto& h : hosts) c.source_of.push_back(index[h]);
}

std::unique_ptr<LogLensService> make_service(size_t partitions) {
  ServiceOptions o;
  o.parser_partitions = partitions;
  o.detector_partitions = partitions;
  o.workers = partitions;
  return std::make_unique<LogLensService>(std::move(o));
}

void deploy_and_land(LogLensService& svc, const CompositeModel& model) {
  svc.models().deploy(svc.model_name(), model);
  svc.drain();
}

std::vector<Agent> make_agents(const Ctx& c, LogLensService& svc) {
  std::vector<Agent> agents;
  agents.reserve(c.sources.size());
  for (const auto& s : c.sources) agents.push_back(svc.make_agent(s));
  return agents;
}

// End-of-phase checks on a drained service after the final heartbeat
// advance. `lines_sent` counts every line the agents shipped, probes
// included; `probes_v1` the probes sent while v1 was deployed.
void check_service(Ctx& c, LogLensService& svc, const std::string& phase,
                   size_t lines_sent, size_t probes_v1) {
  std::set<std::string> flagged;
  size_t unparsed = 0;
  size_t data_unparsed = 0;
  size_t probe_stateful = 0;
  for (const auto& a : svc.anomalies().all()) {
    if (!a.event_id.empty()) flagged.insert(a.event_id);
    const bool from_probe = a.source == kProbeSource;
    if (a.type == AnomalyType::kUnparsedLog) {
      ++unparsed;
      if (!from_probe) ++data_unparsed;
    } else if (from_probe) {
      ++probe_stateful;
    }
  }
  if (c.w.check_sequence) {
    auto want = c.checks.expect("ids_" + phase, c.ds.anomalous_event_ids);
    c.checks.require("ids_" + phase, flagged == want,
                     phase + ": " + describe(flagged, want));
  }
  const size_t want_unparsed = c.checks.expect("unparsed", probes_v1);
  c.checks.require("unparsed", unparsed == want_unparsed,
                   phase + ": " + describe(unparsed, want_unparsed));
  const size_t want_data = c.checks.expect("data_parsed", 0);
  c.checks.require("data_parsed", data_unparsed == want_data,
                   phase + ": unparsed dataset lines " +
                       describe(data_unparsed, want_data));
  const size_t want_quiet = c.checks.expect("probe_quiet", 0);
  c.checks.require("probe_quiet", probe_stateful == want_quiet,
                   phase + ": stateful anomalies on the probe source " +
                       describe(probe_stateful, want_quiet));
  const size_t archived = svc.log_store().size();
  const size_t want_archived = c.checks.expect("archived", lines_sent);
  c.checks.require("archived", archived == want_archived,
                   phase + ": " + describe(archived, want_archived));

  c.ops.lines.attempted += lines_sent;
  c.ops.lines.failed +=
      lines_sent - std::min(archived, lines_sent) + data_unparsed;
}

// ---------------------------------------------------------------------------
// Phase 1: set-up

void setup(Ctx& c) {
  const int64_t t0 = now_ns();
  {
    Span span(c.spans, "bench.datagen");
    c.ds = make_workload_dataset(c.w, c.seed);
    index_sources(c);
  }
  c.m.datagen_s = static_cast<double>(now_ns() - t0) / 1e9;

  BuildOptions opts;
  opts.discovery = recommended_discovery(c.w.dataset);
  ModelBuilder builder(opts);
  {
    Span span(c.spans, "service.build");
    span.set_items(c.ds.training.size());
    const int64_t b0 = now_ns();
    c.models.build = builder.build(c.ds.training);
    c.models.build_s = static_cast<double>(now_ns() - b0) / 1e9;
  }
  c.models.v1 = c.models.build.model;
  {
    // The set-up deploy lands on a throwaway 1-partition service: the
    // measured path is "raw training lines -> model built, deployed and
    // applied by both engines".
    Span span(c.spans, "service.deploy_and_land");
    auto svc = make_service(1);
    deploy_and_land(*svc, c.models.v1);
  }
  // The program's cold set-up: process start to v1 built, deployed and
  // landed, less the benchmark's own input generation.
  c.m.setup_s =
      std::chrono::duration<double>(Clock::now() - kProcessStart).count() -
      c.m.datagen_s;

  // v2: v1 plus the probe template, ids of v1's patterns kept.
  std::vector<std::string> lines = c.ds.training;
  for (int i = 0; i < kProbeTrainingCopies; ++i) {
    lines.emplace_back(kProbeLine);
  }
  c.models.v2 = builder.build(lines, c.models.v1.patterns).model;

  if (c.w.expect_patterns > 0) {
    const size_t want = c.checks.expect("patterns", c.w.expect_patterns);
    c.checks.require("patterns", c.models.v1.patterns.size() == want,
                     "v1 " + describe(c.models.v1.patterns.size(), want));
  }
  const size_t want_v2 =
      c.checks.expect("v2_patterns", c.models.v1.patterns.size() + 1);
  c.checks.require("v2_patterns", c.models.v2.patterns.size() == want_v2,
                   "v2 " + describe(c.models.v2.patterns.size(), want_v2));
  c.checks.require("v2_sequence",
                   (c.models.v2.sequence == c.models.v1.sequence) ==
                       c.checks.expect_true("v2_sequence"),
                   "v2's sequence model against v1's");
  c.checks.require("unparsed_training",
                   c.models.build.unparsed_training_logs ==
                       c.checks.expect("unparsed_training", 0),
                   describe(c.models.build.unparsed_training_logs, 0));
}

// ---------------------------------------------------------------------------
// Phase 2: closed-loop ingest

// One round: a fresh service, the whole test split plus probes. Returns the
// timed span's length in ns per line. The drained service is handed to
// `keep` when non-null.
double ingest_round(Ctx& c, size_t partitions, bool record_spans,
                    std::unique_ptr<LogLensService>* keep) {
  const std::string phase = partitions == 1 ? "1p" : "4p";
  auto svc = make_service(partitions);
  deploy_and_land(*svc, c.models.v1);
  std::vector<Agent> agents = make_agents(c, *svc);
  Agent probe = svc->make_agent(std::string(kProbeSource));

  SpanLog quiet(false);
  SpanLog& spans = record_spans ? c.spans : quiet;
  const auto& lines = c.ds.testing;
  const size_t n = lines.size();
  size_t probes = 0;
  Span round(spans, "phase.ingest_" + phase);
  const int64_t t0 = now_ns();
  for (size_t i = 0; i < n;) {
    const size_t begin = i;
    const size_t end = std::min(n, i + kChunk);
    {
      Span send(spans, "agent.send_chunk");
      for (; i < end; ++i) {
        agents[c.source_of[i]].send_line(lines[i]);
        if ((i + 1) % kProbeEvery == 0) {
          probe.send_line(kProbeLine);
          ++probes;
        }
      }
      send.set_items(end - begin);
    }
    Span drain(spans, "service.drain");
    svc->drain();
  }
  const double elapsed_ns = static_cast<double>(now_ns() - t0);
  const size_t sent = n + probes;
  round.set_items(sent);
  round.close();

  svc->heartbeat_advance(kFarAdvanceMs);
  svc->drain();
  check_service(c, *svc, phase, sent, probes);
  if (partitions == 1) {
    size_t retained = 0;
    for (const auto& topic : svc->broker().topics()) {
      for (size_t p = 0; p < svc->broker().partition_count(topic); ++p) {
        retained += svc->broker().end_offset(topic, p);
      }
    }
    c.m.retained_msgs = static_cast<double>(retained);
  }
  if (keep != nullptr) *keep = std::move(svc);
  return elapsed_ns / static_cast<double>(sent);
}

// ---------------------------------------------------------------------------
// Phase 3: open-loop paced run with model updates

std::unique_ptr<LogLensService> paced_pass(Ctx& c) {
  auto svc = make_service(4);
  deploy_and_land(*svc, c.models.v1);
  std::vector<Agent> agents = make_agents(c, *svc);
  Agent probe = svc->make_agent(std::string(kProbeSource));

  const auto& lines = c.ds.testing;
  const size_t n = lines.size();
  const double ns_per_line = 1e9 / c.w.offered_per_s;
  const int64_t interval_ns = kIntervalMs * 1'000'000;
  std::vector<size_t> update_at;
  for (int k = 1; k <= c.w.updates; ++k) {
    update_at.push_back(n * static_cast<size_t>(k) /
                        static_cast<size_t>(c.w.updates + 1));
  }

  Span pass(c.spans, "phase.paced");
  std::vector<double> latency_ms;
  latency_ms.reserve(n);
  size_t next = 0;
  size_t next_update = 0;
  size_t probes_v1 = 0;
  const int64_t start = now_ns() + interval_ns;
  auto due = [&](size_t i) {
    return start + static_cast<int64_t>(static_cast<double>(i) * ns_per_line);
  };
  for (int64_t tick = 0; next < n; ++tick) {
    const int64_t scheduled = start + tick * interval_ns;
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(scheduled)));
    const int64_t tick_start = now_ns();
    c.m.generator_late_ms.push_back(
        static_cast<double>(std::max<int64_t>(0, tick_start - scheduled)) /
        1e6);
    const size_t first = next;
    {
      Span send(c.spans, "agent.send_due");
      while (next < n && due(next) <= tick_start) {
        agents[c.source_of[next]].send_line(lines[next]);
        ++next;
      }
      send.set_items(next - first);
    }
    const int64_t drain_start = now_ns();
    {
      Span span(c.spans, "service.tick_drain");
      // Heartbeats at each source's observed log time. heartbeat_tick()'s
      // extrapolation is left out: on a replay that runs log time faster
      // than wall time it pushes predicted time ahead of the stream and
      // expires open events early (see README.md, "What is left out").
      svc->heartbeat_advance(0);
      svc->drain();
    }
    const int64_t done = now_ns();
    c.m.tick_drain_us.push_back(static_cast<double>(done - drain_start) / 1e3);
    for (size_t i = first; i < next; ++i) {
      latency_ms.push_back(static_cast<double>(done - due(i)) / 1e6);
    }

    while (next_update < update_at.size() && next >= update_at[next_update]) {
      const bool to_v2 = next_update % 2 == 0;
      const size_t before =
          svc->anomalies().count_by_type(AnomalyType::kUnparsedLog);
      Span span(c.spans, to_v2 ? "service.update_v2" : "service.update_v1");
      const int64_t t0 = now_ns();
      svc->models().deploy(svc->model_name(),
                           to_v2 ? c.models.v2 : c.models.v1);
      c.m.deploy_ms.push_back(ms_since(t0));
      probe.send_line(kProbeLine);
      svc->drain();
      c.m.update_ms.push_back(ms_since(t0));
      span.close();
      const size_t after =
          svc->anomalies().count_by_type(AnomalyType::kUnparsedLog);
      // After v2 lands the probe parses; after v1 it is unparsed again.
      const size_t want =
          c.checks.expect("update_probe", before + (to_v2 ? 0 : 1));
      c.checks.require("update_probe", after == want,
                       std::string("probe after deploying ") +
                           (to_v2 ? "v2: " : "v1: ") + describe(after, want));
      ++c.ops.updates.attempted;
      if (after != before + (to_v2 ? 0 : 1)) ++c.ops.updates.failed;
      if (!to_v2) ++probes_v1;
      ++next_update;
    }
  }
  pass.set_items(n);
  pass.close();
  c.m.latency_p50_ms.push_back(percentile(latency_ms, 0.50));
  c.m.latency_p99_ms.push_back(percentile(latency_ms, 0.99));
  c.m.latency_samples += latency_ms.size();

  svc->heartbeat_advance(kFarAdvanceMs);
  svc->drain();
  check_service(c, *svc, "paced", n + static_cast<size_t>(c.w.updates),
                probes_v1);
  return svc;
}

// ---------------------------------------------------------------------------
// Phase 4: post-facto analysis

// `final_round` replays every source and checks the union of replayed
// event ids; its timings are not recorded, so that every timed sample comes
// from the cycles spread over the run.
void post_facto_round(Ctx& c, LogLensService& svc,
                      const std::vector<std::string>& sources,
                      bool final_round) {
  Span phase(c.spans, "phase.post_facto");
  std::set<std::string> replayed_ids;
  for (const auto& s : sources) {
    Span span(c.spans, "service.replay_archive");
    const int64_t t0 = now_ns();
    auto r = svc.replay_archive(s);
    if (!final_round) c.m.replay_ms.push_back(ms_since(t0));
    ++c.ops.queries.attempted;
    c.checks.require("replay_ok", r.ok() == c.checks.expect_true("replay_ok"),
                     s + ": " + r.status().message());
    if (!r.ok()) {
      ++c.ops.queries.failed;
      continue;
    }
    span.set_items(r->logs);
    for (const auto& a : r->anomalies) {
      if (!a.event_id.empty()) replayed_ids.insert(a.event_id);
    }
  }
  if (final_round) {
    auto want = c.checks.expect("replay_union", c.ds.anomalous_event_ids);
    c.checks.require("replay_union", replayed_ids == want,
                     describe(replayed_ids, want));
  }

  // Independent truth for the term queries: a scan of all().
  std::map<std::string, size_t> by_source;
  std::map<std::string, size_t> by_type;
  for (const auto& a : svc.anomalies().all()) {
    ++by_source[a.source];
    ++by_type[std::string(anomaly_type_name(a.type))];
  }
  std::map<std::string, size_t> lines_by_source;
  for (uint32_t s : c.source_of) ++lines_by_source[c.sources[s]];

  for (const auto& s : sources) {
    Query q;
    q.clauses.push_back(QueryClause::Term("source", s));
    Span span(c.spans, "service.query_and_fetch");
    const int64_t t0 = now_ns();
    const size_t hits = svc.anomalies().query_docs(q).size();
    const size_t fetched = svc.log_store().fetch(s).size();
    if (!final_round) c.m.query_ms.push_back(ms_since(t0));
    span.close();
    c.ops.queries.attempted += 2;
    const size_t want = c.checks.expect("query_count", by_source[s]);
    c.checks.require("query_count", hits == want,
                     "anomalies of source " + s + ": " + describe(hits, want));
    if (s != kProbeSource) {
      const size_t want_lines =
          c.checks.expect("fetch_count", lines_by_source[s]);
      c.checks.require("fetch_count", fetched == want_lines,
                       "archived lines of " + s + ": " +
                           describe(fetched, want_lines));
      if (fetched != lines_by_source[s]) ++c.ops.queries.failed;
    }
    if (hits != by_source[s]) ++c.ops.queries.failed;

    if (c.spans.on() && !final_round) {
      // The storage layer alone, with the plan's own execution probe.
      QueryStats stats;
      Query lq;
      lq.clauses.push_back(QueryClause::Term("source", s));
      Span st(c.spans, "storage.query");
      const int64_t s0 = now_ns();
      const size_t docs = svc.log_store().docs().query(lq, &stats).size();
      c.m.storage_query_ms.push_back(ms_since(s0));
      st.set_items(docs);
      c.m.segments_pruned.push_back(static_cast<double>(stats.segments_pruned));
      c.m.docs_scanned.push_back(static_cast<double>(stats.docs_scanned));
    }
  }
  for (const auto& [type, count] : by_type) {
    Query q;
    q.clauses.push_back(QueryClause::Term("type", type));
    const size_t hits = svc.anomalies().query_docs(q).size();
    ++c.ops.queries.attempted;
    const size_t want = c.checks.expect("query_count", count);
    c.checks.require("query_count", hits == want,
                     "anomalies of type " + type + ": " + describe(hits, want));
    if (hits != count) ++c.ops.queries.failed;
  }
}

// ---------------------------------------------------------------------------
// The ladder (--trace 1): each layer's public entry points in isolation, on
// the workload's own lines, models and messages.

class PassThroughTask : public PartitionTask {
 public:
  void process(const Message& message, TaskContext& ctx) override {
    ctx.emit(message);
  }
};

Message raw_message(const std::string& source, const std::string& line) {
  Message m;
  m.key = source;
  m.value = line;
  m.tag = kTagData;
  m.source = source;
  return m;
}

std::vector<std::vector<Message>> raw_chunks(const Ctx& c) {
  std::vector<std::vector<Message>> chunks;
  const auto& lines = c.ds.testing;
  for (size_t i = 0; i < lines.size(); i += kChunk) {
    std::vector<Message> chunk;
    const size_t end = std::min(lines.size(), i + kChunk);
    chunk.reserve(end - i);
    for (size_t j = i; j < end; ++j) {
      chunk.push_back(raw_message(c.sources[c.source_of[j]], lines[j]));
    }
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

struct Ladder {
  std::map<std::string, std::pair<double, std::string>> metrics;
  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  double get(const std::string& name) const { return metrics.at(name).first; }
};

void run_ladder(Ctx& c, Ladder& out) {
  const auto& lines = c.ds.testing;
  const size_t n = lines.size();
  const double nd = static_cast<double>(n);
  Span ladder(c.spans, "ladder");

  // tokenize (+ its timestamp recognizer's counters)
  auto pre_or = Preprocessor::create({});
  Preprocessor& pre = pre_or.value();
  std::vector<TokenizedLog> tokenized(n);
  {
    Span span(c.spans, "tokenize.process_into");
    for (size_t i = 0; i < n; ++i) pre.process_into(lines[i], tokenized[i]);
    span.set_items(n);
    out.put("tokenize.preprocess_ns_per_log", span.close() * 1e9 / nd, "ns");
  }
  out.put("timestamp.formats_tried_per_log",
          static_cast<double>(pre.recognizer().stats().formats_tried) / nd,
          "count");

  // timestamp: the preprocessor's scan over pre-split tokens
  {
    std::vector<std::vector<std::string_view>> split(n);
    for (size_t i = 0; i < n; ++i) {
      std::string_view line = lines[i];
      size_t pos = 0;
      while (pos < line.size()) {
        size_t end = line.find(' ', pos);
        if (end == std::string_view::npos) end = line.size();
        if (end > pos) split[i].push_back(line.substr(pos, end - pos));
        pos = end + 1;
      }
    }
    TimestampRecognizer recognizer;
    size_t found = 0;
    Span span(c.spans, "timestamp.match_at");
    for (const auto& tokens : split) {
      for (size_t i = 0; i < tokens.size();) {
        if (auto m = recognizer.match_at(tokens, i)) {
          ++found;
          i += m->span;
        } else {
          ++i;
        }
      }
    }
    span.set_items(n);
    out.put("timestamp.recognize_ns_per_log", span.close() * 1e9 / nd, "ns");
    // Every generated line carries exactly one timestamp.
    const size_t want = c.checks.expect("ladder_timestamps", n);
    c.checks.require("ladder_timestamps", found == want,
                     "timestamps recognized " + describe(found, want));
  }

  // parser
  {
    std::vector<double> build_ms;
    for (int i = 0; i < 5; ++i) {
      Span span(c.spans, "parser.build");
      LogParser p(c.models.v1.patterns, pre.classifier());
      build_ms.push_back(span.close() * 1e3);
    }
    out.put("parser.build_ms", median(build_ms), "ms");
  }
  LogParser parser(c.models.v1.patterns, pre.classifier());
  std::vector<ParsedLog> parsed(n);
  std::vector<char> parsed_ok(n, 0);
  {
    Span span(c.spans, "parser.parse_into");
    for (size_t i = 0; i < n; ++i) {
      parsed_ok[i] = parser.parse_into(tokenized[i], parsed[i]) ? 1 : 0;
    }
    span.set_items(n);
    out.put("parser.parse_ns_per_log", span.close() * 1e9 / nd, "ns");
  }
  const ParserStats& ps = parser.stats();
  out.put("parser.index_hit_ratio",
          static_cast<double>(ps.index_hits) / static_cast<double>(ps.logs),
          "ratio");
  out.put("parser.match_attempts_per_log",
          static_cast<double>(ps.match_attempts) / static_cast<double>(ps.logs),
          "count");
  out.put("parser.set_fallbacks", static_cast<double>(ps.set_fallbacks),
          "count");
  const size_t parsed_count =
      static_cast<size_t>(std::count(parsed_ok.begin(), parsed_ok.end(), 1));
  const size_t want_parsed = c.checks.expect("ladder_parsed", n);
  c.checks.require("ladder_parsed", parsed_count == want_parsed,
                   "ladder parse " + describe(parsed_count, want_parsed));

  // wire encode
  {
    Span span(c.spans, "service.parsed_to_message");
    size_t carried = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!parsed_ok[i]) continue;
      const std::string& s = c.sources[c.source_of[i]];
      Message m = parsed_to_message(parsed[i], s, s);
      if (parsed_payload_view(m) != nullptr) ++carried;
    }
    span.set_items(n);
    out.put("service.wire_encode_ns_per_log", span.close() * 1e9 / nd, "ns");
    const size_t want = c.checks.expect("ladder_wire", parsed_count);
    c.checks.require("ladder_wire", carried == want,
                     "messages carrying their parsed log " +
                         describe(carried, want));
  }

  // broker: one produce per message (the agents' path), produce_batch over
  // the whole stream (the log manager's and engines' path), then poll it
  // back
  {
    auto chunks = raw_chunks(c);
    Broker single;
    single.create_topic("ledger", 1);
    Span one(c.spans, "broker.produce");
    for (auto& chunk : chunks) {
      for (auto& m : chunk) (void)single.produce("ledger", std::move(m));
    }
    one.set_items(n);
    out.put("broker.produce_one_ns_per_msg", one.close() * 1e9 / nd, "ns");
  }
  {
    auto chunks = raw_chunks(c);
    Broker broker;
    broker.create_topic("ledger", 1);
    const size_t tenth = std::max<size_t>(1, chunks.size() / 10);
    double first_s = 0;
    double last_s = 0;
    double all_s = 0;
    size_t first_n = 0;
    size_t last_n = 0;
    for (size_t k = 0; k < chunks.size(); ++k) {
      const size_t items = chunks[k].size();
      Span span(c.spans, "broker.produce_batch");
      span.set_items(items);
      (void)broker.produce_batch("ledger", std::move(chunks[k]));
      const double s = span.close();
      all_s += s;
      if (k < tenth) {
        first_s += s;
        first_n += items;
      }
      if (k + tenth >= chunks.size()) {
        last_s += s;
        last_n += items;
      }
    }
    out.put("broker.produce_ns_per_msg_first",
            first_s * 1e9 / static_cast<double>(first_n), "ns");
    out.put("broker.produce_ns_per_msg_last",
            last_s * 1e9 / static_cast<double>(last_n), "ns");
    out.put("ladder.produce_ns_per_msg", all_s * 1e9 / nd, "ns");
    Consumer consumer(broker, "ledger");
    size_t polled = 0;
    Span span(c.spans, "broker.poll");
    for (auto batch = consumer.poll(kChunk); !batch.empty();
         batch = consumer.poll(kChunk)) {
      polled += batch.size();
    }
    span.set_items(polled);
    out.put("broker.poll_ns_per_msg", span.close() * 1e9 / nd, "ns");
    const size_t want = c.checks.expect("ladder_poll", n);
    c.checks.require("ladder_poll", polled == want,
                     "polled " + describe(polled, want));
  }

  // streaming: micro-batches through a pass-through task
  for (size_t parts : {size_t{1}, size_t{4}}) {
    EngineOptions eo;
    eo.partitions = parts;
    eo.workers = parts;
    eo.stage = "ledger";
    StreamEngine engine(eo, [](size_t) {
      return std::make_unique<PassThroughTask>();
    });
    auto chunks = raw_chunks(c);
    std::vector<double> batch_us;
    double total_s = 0;
    size_t outputs = 0;
    for (auto& chunk : chunks) {
      Span span(c.spans, "streaming.run_batch");
      span.set_items(chunk.size());
      BatchResult r = engine.run_batch(std::move(chunk));
      const double s = span.close();
      outputs += r.outputs.size();
      batch_us.push_back(s * 1e6);
      total_s += s;
    }
    const size_t want = c.checks.expect("ladder_engine", n);
    c.checks.require("ladder_engine", outputs == want,
                     "pass-through outputs " + describe(outputs, want));
    const std::string suffix = parts == 1 ? "1p" : "4p";
    out.put("streaming.run_batch_us_" + suffix, median(batch_us), "us");
    if (parts == 1) {
      out.put("ladder.run_batch_ns_per_msg", total_s * 1e9 / nd, "ns");
    }
  }

  // automata: on_log over the parsed stream, a heartbeat per chunk
  {
    SequenceDetector detector(c.models.v1.sequence);
    double on_log_s = 0;
    double heartbeat_s = 0;
    size_t heartbeats = 0;
    size_t peak = 0;
    int64_t max_ts = -1;
    for (size_t i = 0; i < n;) {
      const size_t end = std::min(n, i + kChunk);
      {
        Span span(c.spans, "automata.on_log");
        span.set_items(end - i);
        for (; i < end; ++i) {
          if (!parsed_ok[i]) continue;
          (void)detector.on_log(parsed[i], c.sources[c.source_of[i]]);
          max_ts = std::max(max_ts, parsed[i].timestamp_ms);
        }
        on_log_s += span.close();
      }
      peak = std::max(peak, detector.open_events());
      Span span(c.spans, "automata.on_heartbeat");
      (void)detector.on_heartbeat(max_ts);
      heartbeat_s += span.close();
      ++heartbeats;
    }
    out.put("automata.on_log_ns", on_log_s * 1e9 / nd, "ns");
    out.put("automata.heartbeat_us",
            heartbeat_s * 1e6 / static_cast<double>(heartbeats), "us");
    out.put("automata.open_events_peak", static_cast<double>(peak), "count");
  }

  // storage: archive add into the in-memory store the pipeline uses, then
  // explicit flush and compaction rounds on a segment-backed store
  {
    LogStore archive;
    Span span(c.spans, "storage.archive_add");
    for (size_t i = 0; i < n; ++i) {
      archive.add(c.sources[c.source_of[i]], lines[i], -1);
    }
    span.set_items(n);
    out.put("storage.archive_add_ns_per_log", span.close() * 1e9 / nd, "ns");
  }
  {
    DocumentStoreOptions o;
    o.dir = c.fresh_dir("ladder-segments");
    o.hot_max_docs = 0;
    o.auto_compact = false;
    LogStore store(o);
    constexpr size_t kFlushDocs = 4096;
    std::vector<double> flush_ms;
    for (size_t i = 0; i < n;) {
      const size_t end = std::min(n, i + kFlushDocs);
      for (; i < end; ++i) store.add(c.sources[c.source_of[i]], lines[i], -1);
      Span span(c.spans, "storage.flush");
      span.set_items(kFlushDocs);
      Status s = store.flush();
      flush_ms.push_back(span.close() * 1e3);
      c.checks.require("ladder_flush",
                       s.ok() == c.checks.expect_true("ladder_flush"),
                       "flush: " + s.message());
    }
    std::vector<double> compact_ms;
    DocumentStore& docs = const_cast<DocumentStore&>(store.docs());
    for (size_t before = docs.segment_count(); before > 1;) {
      Span span(c.spans, "storage.compact");
      Status s = docs.compact();
      const double ms = span.close() * 1e3;
      c.checks.require("ladder_compact",
                       s.ok() == c.checks.expect_true("ladder_compact"),
                       "compact: " + s.message());
      const size_t after = docs.segment_count();
      if (!s.ok() || after >= before) break;
      compact_ms.push_back(ms);
      before = after;
    }
    out.put("storage.flush_ms", median(flush_ms), "ms");
    out.put("storage.compact_ms", median(compact_ms), "ms");
    c.checks.require("ladder_compacted",
                     !compact_ms.empty() ==
                         c.checks.expect_true("ladder_compacted"),
                     "compaction rounds that merged segments: " +
                         std::to_string(compact_ms.size()));
    const size_t want = c.checks.expect("ladder_segments", n);
    c.checks.require("ladder_segments", store.size() == want,
                     "segment store " + describe(store.size(), want));
  }
}

// ---------------------------------------------------------------------------

size_t peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<size_t>(ru.ru_maxrss);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string plant;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--plant") {
      a.plant = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

void print_result(bool correct, const Ops& ops,
                  const std::vector<std::tuple<std::string, double,
                                               std::string>>& metrics) {
  const uint64_t attempted =
      ops.lines.attempted + ops.updates.attempted + ops.queries.attempted;
  const uint64_t failed =
      ops.lines.failed + ops.updates.failed + ops.queries.failed;
  std::fprintf(stderr,
               "ledger: operations lines %llu/%llu failed, updates %llu/%llu "
               "failed, queries %llu/%llu failed\n",
               static_cast<unsigned long long>(ops.lines.failed),
               static_cast<unsigned long long>(ops.lines.attempted),
               static_cast<unsigned long long>(ops.updates.failed),
               static_cast<unsigned long long>(ops.updates.attempted),
               static_cast<unsigned long long>(ops.queries.failed),
               static_cast<unsigned long long>(ops.queries.attempted));
  for (const auto& [name, value, unit] : metrics) {
    std::fprintf(stderr, "ledger: %-34s %14.4f %s\n", name.c_str(), value,
                 unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), value, unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: ledger_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--plant <check>]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const auto& candidate : workloads()) {
    if (candidate.name == args.workload) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "ledger: unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  Ctx c{*w, args.seed, "", {}, {}, {}, {}, Checks(args.plant), {},
        SpanLog(args.trace == 1), {}, 0};
  std::error_code ec;
  c.run_dir = std::string(kOutDir) + "/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(c.run_dir, ec);
  std::filesystem::create_directories(c.run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "ledger: cannot create %s\n", c.run_dir.c_str());
    return 2;
  }

  // Phase 1.
  setup(c);

  // Warm-up: one ingest round at each partition count, checked like every
  // round but not timed, so the allocator and page cache are warm.
  (void)ingest_round(c, 1, false, nullptr);
  (void)ingest_round(c, 4, false, nullptr);

  // Phases 2-4 run in cycles until the run's time is spent, and each
  // metric's samples are spread over the whole run: on a shared machine the
  // speed of a core changes over seconds, and a phase that ran in one
  // stretch of the run picked up that stretch's speed. A cycle is four
  // ingest rounds (1, 1, 4 and 4 partitions), each followed by a post-facto
  // slice (two sources of a rotating window) on the previous paced pass's
  // service, and then the next paced pass. A final, untimed post-facto
  // round on the last pass's service covers every source for the replay
  // union check.
  constexpr size_t kPostFactoSlice = 2;
  std::vector<std::string> all_sources = c.sources;
  all_sources.emplace_back(kProbeSource);
  size_t next_source = 0;
  const double share = args.trace == 1 ? 0.6 : 1.0;
  const int64_t until =
      now_ns() + static_cast<int64_t>(args.seconds * share * 1e9);
  std::unique_ptr<LogLensService> last = paced_pass(c);
  for (size_t cycle = 0; cycle == 0 || now_ns() < until; ++cycle) {
    for (int r = 0; r < 4; ++r) {
      if (r < 2) {
        // Traced runs time the second 1-partition round with the
        // benchmark's spans on: the difference is the tracing overhead.
        const bool spans_on = args.trace == 1 && r == 1;
        std::unique_ptr<LogLensService> idle;
        const bool keep = args.trace == 1 && cycle == 0 && r == 0;
        const double v = ingest_round(c, 1, spans_on, keep ? &idle : nullptr);
        (spans_on ? c.m.ingest_1p_traced_ns_per_log
                  : c.m.ingest_1p_ns_per_log)
            .push_back(v);
        for (int i = 0; keep && i < 200; ++i) {
          const int64_t t0 = now_ns();
          idle->drain();
          c.m.empty_drain_us.push_back(static_cast<double>(now_ns() - t0) /
                                       1e3);
        }
      } else {
        c.m.ingest_4p_ns_per_log.push_back(
            ingest_round(c, 4, args.trace == 1, nullptr));
      }
      std::vector<std::string> slice;
      for (size_t j = 0; j < kPostFactoSlice; ++j) {
        slice.push_back(all_sources[next_source++ % all_sources.size()]);
      }
      post_facto_round(c, *last, slice, false);
    }
    last.reset();
    last = paced_pass(c);
  }
  post_facto_round(c, *last, all_sources, true);
  last.reset();

  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (args.trace == 0) {
    // Phase 5 is the peak RSS read below.
    metrics = {
        {"setup_s", c.m.setup_s, "s"},
        // Rates use the first-decile round: on a shared machine a round
        // whose threads landed on a contended core ran up to 1.5x slower,
        // and the share of such rounds changed from run to run; the faster
        // rounds measure the program rather than its neighbours.
        {"ingest_1p_logs_per_s",
         1e9 / percentile(c.m.ingest_1p_ns_per_log, 0.1), "logs/s"},
        {"ingest_4p_logs_per_s",
         1e9 / percentile(c.m.ingest_4p_ns_per_log, 0.1), "logs/s"},
        {"latency_p50_ms", median(c.m.latency_p50_ms), "ms"},
        {"latency_p99_ms", median(c.m.latency_p99_ms), "ms"},
        {"model_update_ms", median(c.m.update_ms), "ms"},
        {"peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB"},
    };
    std::fprintf(stderr,
                 "ledger: %zu latency samples in %zu passes; generator late "
                 "p99 %.3f ms, max %.3f ms; %zu/%zu timed ingest rounds "
                 "(1p/4p)\n",
                 c.m.latency_samples, c.m.latency_p99_ms.size(),
                 percentile(c.m.generator_late_ms, 0.99),
                 percentile(c.m.generator_late_ms, 1.0),
                 c.m.ingest_1p_ns_per_log.size(),
                 c.m.ingest_4p_ns_per_log.size());
  } else {
    Ladder ladder;
    run_ladder(c, ladder);
    const double ingest_ns = median(c.m.ingest_1p_ns_per_log);
    const double traced_ns = median(c.m.ingest_1p_traced_ns_per_log);
    // One log's 1-partition path: three broker hops (the agent's produce
    // into ingest, produce_batch into logs and parsed, a poll for each), two
    // engine stages, and each layer once.
    const double sum =
        ladder.get("tokenize.preprocess_ns_per_log") +
        ladder.get("parser.parse_ns_per_log") +
        ladder.get("service.wire_encode_ns_per_log") +
        ladder.get("broker.produce_one_ns_per_msg") +
        2 * ladder.get("ladder.produce_ns_per_msg") +
        3 * ladder.get("broker.poll_ns_per_msg") +
        2 * ladder.get("ladder.run_batch_ns_per_msg") +
        ladder.get("automata.on_log_ns") +
        ladder.get("storage.archive_add_ns_per_log");
    ladder.metrics.erase("ladder.produce_ns_per_msg");
    ladder.metrics.erase("ladder.run_batch_ns_per_msg");
    ladder.put("ladder.sum_ns_per_log", sum, "ns");
    ladder.put("ladder.residual_ns_per_log", ingest_ns - sum, "ns");
    ladder.put("trace.overhead_ns_per_log", traced_ns - ingest_ns, "ns");
    ladder.put("broker.retained_msgs", c.m.retained_msgs, "count");
    ladder.put("service.empty_drain_us", median(c.m.empty_drain_us), "us");
    ladder.put("service.tick_drain_p99_us",
               percentile(c.m.tick_drain_us, 0.99), "us");
    ladder.put("service.deploy_ms", median(c.m.deploy_ms), "ms");
    // Post-facto timings: too unsteady between runs to carry a bound as
    // end-to-end metrics (see README.md, "Steadiness").
    ladder.put("service.replay_ms", median(c.m.replay_ms), "ms");
    ladder.put("service.query_ms", median(c.m.query_ms), "ms");
    ladder.put("service.build_s", c.models.build_s, "s");
    ladder.put("logmine.discover_s", c.models.build.discovery_seconds, "s");
    ladder.put("bench.datagen_s", c.m.datagen_s, "s");
    ladder.put("paced.generator_late_p99_ms",
               percentile(c.m.generator_late_ms, 0.99), "ms");
    ladder.put("storage.query_ms", median(c.m.storage_query_ms), "ms");
    auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    ladder.put("storage.segments_pruned", mean(c.m.segments_pruned), "count");
    ladder.put("storage.docs_scanned", mean(c.m.docs_scanned), "count");
    for (const auto& [name, vu] : ladder.metrics) {
      metrics.emplace_back(name, vu.first, vu.second);
    }
    const std::string path = std::string(kOutDir) + "/spans-" + w->name + "-" +
                             std::to_string(args.seed) + ".json";
    if (!c.spans.write(path)) {
      std::fprintf(stderr, "ledger: cannot write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "ledger: spans written to %s\n", path.c_str());
    }
  }

  std::filesystem::remove_all(c.run_dir, ec);
  if (!c.checks.planted_evaluated()) {
    std::fprintf(stderr, "ledger: --plant %s names no check this workload runs\n",
                 args.plant.c_str());
    return 2;
  }
  const bool correct = c.checks.ok();
  print_result(correct, c.ops, metrics);
  return correct ? 0 : 1;
}
