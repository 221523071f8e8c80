#include "serve.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "idle_poll.h"
#include "lang/parser.h"
#include "lang/translate.h"
#include "reference.h"
#include "server/client.h"
#include "server/server.h"
#include "server/session.h"
#include "testing/nested_sample.h"

namespace perfbench {
namespace {

// Setups per run; setup_s is their median.
constexpr int kSetups = 11;
// The measurement alternates open-loop and closed-loop slices, this many
// of each, so that a disturbance of the host lasting a few seconds hits
// a few slices of both loops rather than one whole loop; every metric is
// computed per slice (see SegmentStat).
constexpr int kSlices = 20;
// Warm-up: hot runs every query this many times, ad-hoc sends this many
// requests of a separate stream (enough to fill the memo and the cache).
constexpr int kHotWarmRounds = 50;
constexpr int kAdhocWarmRequests = 400;
// Fixed open-loop offered rates, requests per second over all generator
// threads: well inside what nproc/2 server workers sustain on each mix.
constexpr double kHotRatePerS = 1000;
constexpr double kAdhocRatePerS = 400;
// A closed-loop "mix round" is this many consecutive requests on one
// connection: one pass over the hot queries.
constexpr size_t kRoundSize = 14;

const char* const kHotTexts[] = {
    "Select All From EMPLOYEE*ChildName, DEPARTMENT "
    "Where EMPLOYEE.D# = DEPARTMENT.D#",
    "Select All From DEPARTMENT-->Manager-->Audit",
    "Select All From DEPARTMENT-->Manager*ChildName "
    "Where DEPARTMENT.Location = 'Zurich'",
    "Select All From EMPLOYEE Where EMPLOYEE.Rank = 7",
    "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Secretary "
    "Where EMPLOYEE.D# = DEPARTMENT.D#",
    "Select EMPLOYEE.Rank, DEPARTMENT.Location From EMPLOYEE, DEPARTMENT "
    "Where EMPLOYEE.D# = DEPARTMENT.D#",
    "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
    "DEPARTMENT D2, EMPLOYEE E3 "
    "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
    "and E3.D# = D2.D#",
    "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
    "DEPARTMENT D2, EMPLOYEE E3 "
    "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
    "and E3.D# = D2.D# and D1.Location = 'Zurich'",
    "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
    "DEPARTMENT D2, EMPLOYEE E3 "
    "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
    "and E3.D# = D2.D# and D1.Location = 'Toronto'",
    "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
    "DEPARTMENT D2, EMPLOYEE E3, DEPARTMENT D3, EMPLOYEE E4 "
    "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
    "and E3.D# = D2.D# and E4.D# = D2.D# and E4.Rank = E1.Rank "
    "and D3.D# = E3.D#",
    "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
    "DEPARTMENT D2, EMPLOYEE E3, DEPARTMENT D3, EMPLOYEE E4 "
    "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
    "and E3.D# = D2.D# and E4.D# = D2.D# and E4.Rank = E1.Rank "
    "and D3.D# = E3.D# and D3.Location = 'Zurich'",
    "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
    "DEPARTMENT D2, EMPLOYEE E3, DEPARTMENT D3, EMPLOYEE E4 "
    "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
    "and E3.D# = D2.D# and E4.D# = D2.D# and E4.Rank = E1.Rank "
    "and D3.D# = E3.D# and D3.Location = 'Toronto'",
    "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
    "DEPARTMENT D2, EMPLOYEE E3, DEPARTMENT D3, EMPLOYEE E4 "
    "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
    "and E3.D# = D2.D# and E4.D# = D2.D# and E4.Rank = E1.Rank "
    "and D3.D# = E3.D# and D3.Location = 'Boston'",
    "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
    "DEPARTMENT D2, EMPLOYEE E3, DEPARTMENT D3, EMPLOYEE E4 "
    "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
    "and E3.D# = D2.D# and E4.D# = D2.D# and E4.Rank = E1.Rank "
    "and D3.D# = E3.D# and D3.Location = 'Paris'",
};

// Which text the i-th request of a stream sends. Streams are disjoint
// seeded sequences: warm-up, open loop, one per closed-loop connection,
// and the traced replay.
class TextPicker {
 public:
  TextPicker(bool adhoc, uint64_t seed, size_t num_texts)
      : adhoc_(adhoc), seed_(seed), num_texts_(num_texts) {}

  size_t Pick(uint64_t stream, uint64_t i) const {
    if (!adhoc_) {
      // Hot: every stream cycles through the 14 queries, streams start
      // at different offsets.
      return static_cast<size_t>((stream * 7 + i) % num_texts_);
    }
    return static_cast<size_t>(
        Mix64(Mix64(seed_ ^ (stream << 48)) + i) % num_texts_);
  }

 private:
  bool adhoc_;
  uint64_t seed_;
  size_t num_texts_;
};

enum Stream : uint64_t {
  kWarmStream = 0,
  kOpenStream = 1,
  kReplayStream = 2,
  kClosedStreamBase = 3,
};

// One set-up instance: the database, the texts, and a warmed server.
struct Fixture {
  fro::NestedDb db;
  std::vector<std::string> texts;
  std::unique_ptr<fro::FroServer> server;
};

struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
};

std::unique_ptr<Fixture> SetUp(bool adhoc, uint64_t seed, int workers,
                               Tally* tally) {
  auto fixture = std::make_unique<Fixture>();
  if (adhoc) {
    fixture->db = fro::MakeScaledCompanyNestedDb(kAdhocScale);
    fixture->texts = GenerateAdhocQueries(seed, kAdhocPoolSize, kAdhocScale);
  } else {
    fixture->db = fro::MakeCompanyNestedDb();
    fixture->texts = HotQueries();
  }
  fro::ServerOptions options;
  options.num_workers = workers;
  options.max_pending = workers * 4;
  options.plan_cache_capacity = 128;
  fixture->server = std::make_unique<fro::FroServer>(&fixture->db, options);
  if (!fixture->server->Start().ok()) return nullptr;

  fro::FroClient client;
  if (!client.Connect("127.0.0.1", fixture->server->port()).ok()) {
    return nullptr;
  }
  const TextPicker picker(adhoc, seed, fixture->texts.size());
  const uint64_t warm =
      adhoc ? kAdhocWarmRequests : kHotWarmRounds * fixture->texts.size();
  for (uint64_t i = 0; i < warm; ++i) {
    fro::Result<fro::Response> r =
        client.Query(fixture->texts[picker.Pick(kWarmStream, i)]);
    tally->attempted.fetch_add(1);
    if (!r.ok() || !r->status.ok()) tally->failed.fetch_add(1);
  }
  return fixture;
}

bool Served(const fro::Result<fro::Response>& r, const Reference& ref) {
  return r.ok() && r->status.ok() && MatchesReference(r->body, ref);
}

// Sleeps until shortly before `due_ns`, then spins: the timer's wake-up
// jitter belongs to the load generator, not to the server it measures.
void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 200000;
  if (due_ns - NowNs() > kSpinNs) {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(due_ns - kSpinNs)));
  }
  while (NowNs() < due_ns) {
  }
}

struct OpenLoopResult {
  std::vector<double> latency_us;  // from each request's due time
  std::vector<double> lag_us;      // send time minus due time
  bool backlog = false;
};

// Open loop: request k is due at start + k / rate whatever happened to
// earlier requests; `generators` threads share the schedule round-robin.
// Requests are numbered from `first_request` for the text picker.
OpenLoopResult OpenLoop(const Fixture& fixture,
                        const std::vector<Reference>& refs,
                        const TextPicker& picker, int generators,
                        double rate, double seconds, uint64_t first_request,
                        Tally* tally) {
  const uint64_t total = static_cast<uint64_t>(rate * seconds);
  std::vector<double> latency(total, -1), lag(total, -1);
  const int64_t start = NowNs() + 1000000;  // 1 ms to spawn the threads
  // Requests still unsent this long after the schedule ends are dropped
  // and count as failed: the generator has fallen behind for good.
  const int64_t give_up = start + static_cast<int64_t>(seconds * 2e9);
  std::vector<std::thread> threads;
  for (int g = 0; g < generators; ++g) {
    threads.emplace_back([&, g] {
      fro::FroClient client;
      const bool connected =
          client.Connect("127.0.0.1", fixture.server->port()).ok();
      for (uint64_t k = static_cast<uint64_t>(g); k < total;
           k += static_cast<uint64_t>(generators)) {
        const int64_t due =
            start + static_cast<int64_t>(static_cast<double>(k) * 1e9 / rate);
        tally->attempted.fetch_add(1);
        if (!connected || NowNs() > give_up) {
          tally->failed.fetch_add(1);
          continue;
        }
        WaitUntil(due);
        const int64_t sent = NowNs();
        const size_t text = picker.Pick(kOpenStream, first_request + k);
        fro::Result<fro::Response> r = client.Query(fixture.texts[text]);
        const int64_t done = NowNs();
        lag[k] = static_cast<double>(sent - due) / 1e3;
        latency[k] = static_cast<double>(done - due) / 1e3;
        if (!Served(r, refs[text])) tally->failed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  OpenLoopResult out;
  for (uint64_t k = 0; k < total; ++k) {
    if (latency[k] < 0) continue;
    out.latency_us.push_back(latency[k]);
    out.lag_us.push_back(lag[k]);
  }
  // A backlog shows as lag that grows over the schedule: compare its
  // last tenth with its first.
  const size_t tenth = out.lag_us.size() / 10;
  if (out.lag_us.size() < total) {
    out.backlog = true;
  } else if (tenth > 0) {
    std::vector<double> head(out.lag_us.begin(), out.lag_us.begin() + tenth);
    std::vector<double> tail(out.lag_us.end() - tenth, out.lag_us.end());
    const double head_p50 = Median(head), tail_p50 = Median(tail);
    out.backlog = tail_p50 > 5000 && tail_p50 > 10 * head_p50;
  }
  return out;
}

struct ClosedLoopResult {
  uint64_t completed = 0;
  double seconds = 0;
  std::vector<double> round_ms;
  std::vector<double> request_us;
  std::vector<Span> spans;
};

// Closed loop: each connection sends its next request when the previous
// one has been answered and checked.
ClosedLoopResult ClosedLoop(const Fixture& fixture,
                            const std::vector<Reference>& refs,
                            const TextPicker& picker, int connections,
                            uint64_t first_stream, double seconds, bool traced,
                            Tally* tally) {
  std::vector<ClosedLoopResult> per(static_cast<size_t>(connections));
  // Span ids are unique per log index; streams are unique per loop.
  std::vector<SpanLog> logs;
  for (int c = 0; c < connections; ++c) {
    logs.emplace_back(traced, static_cast<uint32_t>(first_stream) + c);
  }
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ClosedLoopResult& mine = per[static_cast<size_t>(c)];
      SpanLog* log = &logs[static_cast<size_t>(c)];
      fro::FroClient client;
      if (!client.Connect("127.0.0.1", fixture.server->port()).ok()) {
        tally->attempted.fetch_add(1);
        tally->failed.fetch_add(1);
        return;
      }
      const uint64_t stream = first_stream + static_cast<uint64_t>(c);
      int64_t round_start = NowNs();
      for (uint64_t i = 0; NowNs() < end; ++i) {
        const size_t text = picker.Pick(stream, i);
        const int64_t t0 = NowNs();
        fro::Result<fro::Response> r = [&] {
          ScopedSpan span(log, "client.request", 0, (stream << 32) | i);
          return client.Query(fixture.texts[text]);
        }();
        const int64_t t1 = NowNs();
        tally->attempted.fetch_add(1);
        if (!Served(r, refs[text])) tally->failed.fetch_add(1);
        ++mine.completed;
        mine.request_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        if ((i + 1) % kRoundSize == 0) {
          mine.round_ms.push_back(static_cast<double>(t1 - round_start) / 1e6);
          round_start = t1;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopResult out;
  out.seconds = SecondsSince(start);
  for (const SpanLog& log : logs) {
    out.spans.insert(out.spans.end(), log.spans().begin(), log.spans().end());
  }
  for (ClosedLoopResult& r : per) {
    out.completed += r.completed;
    out.round_ms.insert(out.round_ms.end(), r.round_ms.begin(),
                        r.round_ms.end());
    out.request_us.insert(out.request_us.end(), r.request_us.begin(),
                          r.request_us.end());
  }
  return out;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

// The in-process replay of one request, layer by layer, with the
// harness's own plan cache and feedback store (so the optimizer sees the
// same hit/miss pattern the server's does).
struct Replay {
  fro::LruPlanCache cache{128};
  fro::FeedbackStore feedback;
};

bool ReplayRequest(const fro::NestedDb& db, const std::string& text,
                   const Reference& ref, Replay* replay, SpanLog* log,
                   uint64_t parent, uint64_t request,
                   LayerCounters* counters) {
  // Column mirrors built on a fresh translation of their own, so the
  // replayed pipeline below still pays for them the way the server does.
  {
    fro::Result<fro::SelectQuery> ast = fro::ParseQuery(text);
    if (!ast.ok()) return false;
    fro::Result<fro::TranslationResult> fresh = fro::TranslateQuery(db, *ast);
    if (!fresh.ok()) return false;
    ScopedSpan span(log, "relational.columnize", parent, request);
    for (fro::RelId rel = 0; rel < fresh->db->num_relations(); ++rel) {
      fresh->db->CachedColumns(rel);
    }
  }

  ScopedSpan query(log, "query", parent, request);
  fro::Result<fro::SelectQuery> ast = [&] {
    ScopedSpan span(log, "lang.parse", query.id(), request);
    return fro::ParseQuery(text);
  }();
  if (!ast.ok()) return false;
  fro::Result<fro::TranslationResult> translation = [&] {
    ScopedSpan span(log, "lang.translate", query.id(), request);
    return fro::TranslateQuery(db, *ast);
  }();
  if (!translation.ok()) return false;
  const Execution run =
      PlanAndRun(translation->query, *translation->db, &replay->cache,
                 &replay->feedback, /*threads=*/1, log, query.id(), request);
  if (!run.ok) return false;
  counters->AddOptimize(run.outcome);
  counters->AddExecution(run.stats, run.relation.NumRows(), run.drain_ns);
  std::string body;
  {
    ScopedSpan span(log, "server.render", query.id(), request);
    body = CanonicalPrefix(run.relation, translation->db->catalog()) +
           run.outcome.Summary() + ")\n";
  }
  return MatchesReference(body, ref);
}

}  // namespace

const std::vector<std::string>& HotQueries() {
  static const std::vector<std::string> texts(std::begin(kHotTexts),
                                              std::end(kHotTexts));
  return texts;
}

std::string GenerateAdhocQuery(fro::Rng* rng, int scale) {
  struct Item {
    bool department = false;
    std::string alias;
    std::string chain;
    // Steps still available, in the order they may be appended.
    std::vector<std::string> steps;
    bool has_employee = false;  // a -->Manager/-->Secretary step is in
    bool has_children = false;
  };
  std::vector<Item> items;
  std::vector<std::string> where;
  const int target_vars = 2 + static_cast<int>(rng->Uniform(8));  // 2..9
  int vars = 0;
  auto add_item = [&](bool department) {
    Item item;
    item.department = department;
    item.alias = (department ? "D" : "E") + std::to_string(items.size() + 1);
    if (department) item.steps = {"-->Manager", "-->Secretary", "-->Audit"};
    items.push_back(item);
    ++vars;
  };
  auto can_step = [](const Item& item) {
    return !item.steps.empty() ||
           ((item.has_employee || !item.department) && !item.has_children);
  };
  add_item(rng->Uniform(2) == 0);
  while (vars < target_vars) {
    std::vector<size_t> steppable;
    for (size_t i = 0; i < items.size(); ++i) {
      if (can_step(items[i])) steppable.push_back(i);
    }
    const bool may_add = items.size() < 4;
    if (may_add && (steppable.empty() || rng->Uniform(5) < 2)) {
      const size_t other = rng->Uniform(items.size());
      add_item(rng->Uniform(2) == 0);
      const Item& fresh = items.back();
      const Item& old = items[other];
      // Every new item joins an earlier one on D#, so the From list is
      // connected and no plan needs a Cartesian product.
      where.push_back(fresh.alias + ".D# = " + old.alias + ".D#");
      continue;
    }
    if (steppable.empty()) break;
    Item& item = items[steppable[rng->Uniform(steppable.size())]];
    const size_t options =
        item.steps.size() +
        (((item.has_employee || !item.department) && !item.has_children) ? 1
                                                                           : 0);
    const size_t pick = rng->Uniform(options);
    if (pick < item.steps.size()) {
      const std::string step = item.steps[pick];
      item.steps.erase(item.steps.begin() + static_cast<std::ptrdiff_t>(pick));
      if (step != "-->Audit") item.has_employee = true;
      item.chain += step;
    } else {
      item.chain += "*ChildName";
      item.has_children = true;
    }
    ++vars;
  }
  // Random constants: restrictions on the base variables.
  static const char* const kLocations[] = {"Zurich", "Queretaro", "Lisbon",
                                           "Osaka"};
  const uint64_t departments = static_cast<uint64_t>(3 * scale);
  for (const Item& item : items) {
    if (rng->Uniform(2) == 0) continue;
    const uint64_t kind = rng->Uniform(3);
    const std::string d_const = std::to_string(1 + rng->Uniform(departments));
    if (item.department) {
      if (kind == 0) {
        where.push_back(item.alias + ".Location = '" +
                        kLocations[rng->Uniform(4)] + "'");
      } else {
        where.push_back(item.alias + (kind == 1 ? ".D# <= " : ".D# >= ") +
                        d_const);
      }
    } else {
      const std::string rank = std::to_string(rng->Uniform(4));
      if (kind == 0) {
        where.push_back(item.alias + ".Rank = " + rank);
      } else if (kind == 1) {
        where.push_back(item.alias + ".Rank <> " + rank);
      } else {
        where.push_back(item.alias + ".D# <= " + d_const);
      }
    }
  }
  std::string text = "Select All From ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) text += ", ";
    text += (items[i].department ? "DEPARTMENT " : "EMPLOYEE ") +
            items[i].alias + items[i].chain;
  }
  for (size_t i = 0; i < where.size(); ++i) {
    text += (i == 0 ? " Where " : " and ") + where[i];
  }
  return text;
}

std::vector<std::string> GenerateAdhocQueries(uint64_t seed, size_t count,
                                              int scale) {
  fro::Rng rng(seed);
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (size_t attempts = 0; out.size() < count && attempts < count * 20;
       ++attempts) {
    std::string text = GenerateAdhocQuery(&rng, scale);
    if (seen.insert(text).second) out.push_back(std::move(text));
  }
  return out;
}

RunResult RunServe(const RunConfig& config) {
  const bool adhoc = config.workload == "serve_adhoc";
  const int half = std::max(1, static_cast<int>(config.nproc / 2));
  // Served requests hand off between threads twice each; keep the CPUs
  // from halting between handoffs (see idle_poll.h).
  const IdlePoller poller(config.nproc);
  RunResult result;
  Tally tally;

  // Set-up, several times; the last instance is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  const int setups = config.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    fixture.reset();
    const int64_t start = NowNs();
    fixture = SetUp(adhoc, config.seed, half, &tally);
    setup_s.push_back(SecondsSince(start));
    if (fixture == nullptr) {
      result.correct = false;
      result.failed = result.attempted = 1;
      return result;
    }
  }
  // References, outside the set-up time and outside peak_rss_mb.
  std::vector<Reference> refs;
  for (const std::string& text : fixture->texts) {
    refs.push_back(ReferenceOf(ReferencePrefix(fixture->db, text)));
  }
  const bool rss_reset = ResetPeakRss();
  const TextPicker picker(adhoc, config.seed, fixture->texts.size());
  const double rate = adhoc ? kAdhocRatePerS : kHotRatePerS;

  if (!config.trace) {
    const double slice_seconds = config.seconds * 0.5 / kSlices;
    const uint64_t per_slice = static_cast<uint64_t>(rate * slice_seconds);
    SegmentStat latency_p50, latency_p90, throughput, mix_p50, mix_p90;
    std::vector<double> lag;
    int backlogged = 0;
    for (int slice = 0; slice < kSlices; ++slice) {
      OpenLoopResult open =
          OpenLoop(*fixture, refs, picker, half, rate, slice_seconds,
                   static_cast<uint64_t>(slice) * per_slice, &tally);
      ClosedLoopResult closed = ClosedLoop(
          *fixture, refs, picker, half,
          kClosedStreamBase + static_cast<uint64_t>(slice * half),
          slice_seconds, false, &tally);
      latency_p50.Add(Quantile(&open.latency_us, 0.5), open.latency_us.size());
      latency_p90.Add(Quantile(&open.latency_us, 0.9), open.latency_us.size());
      throughput.Add(static_cast<double>(closed.completed) / closed.seconds,
                     closed.completed);
      mix_p50.Add(Quantile(&closed.round_ms, 0.5), closed.round_ms.size());
      mix_p90.Add(Quantile(&closed.round_ms, 0.9), closed.round_ms.size());
      lag.insert(lag.end(), open.lag_us.begin(), open.lag_us.end());
      if (open.backlog) ++backlogged;
    }
    latency_p50.Emit("latency_p50_us", "us", &result);
    latency_p90.Emit("latency_p90_us", "us", &result);
    throughput.Emit("throughput_qps", "1/s", &result);
    mix_p50.Emit("mix_latency_ms_p50", "ms", &result);
    mix_p90.Emit("mix_latency_ms_p90", "ms", &result);
    result.Add("setup_s", Median(setup_s), "s", setup_s.size());
    result.Add("peak_rss_mb", PeakRssMb(), "MiB", 1);
    result.Detail("peak_rss_since", JsonString(rss_reset ? "measurement"
                                                         : "process start"));
    result.Detail("offered_rate_per_s", JsonNumber(rate));
    result.Detail("generator_threads", std::to_string(half));
    result.Detail("server_workers", std::to_string(half));
    result.Detail("lag_p90_us", JsonNumber(Quantile(&lag, 0.9)));
    // A server that cannot keep up backlogs in every slice; one
    // disturbed slice does not make a backlog.
    const bool backlog = 2 * backlogged >= kSlices;
    result.Detail("backlogged_slices", std::to_string(backlogged));
    result.Detail("backlog", backlog ? "true" : "false");
    if (backlog) result.correct = false;
  } else {
    const fro::FroServer& server = *fixture->server;
    const fro::PlanCacheStats cache_before = server.plan_cache().stats();
    const uint64_t ast_hits_before = server.session().ast_hits();
    const uint64_t ast_misses_before = server.session().ast_misses();
    const uint64_t rejected_before = server.metrics().rejected();

    // Tracing overhead: the closed loop without and with spans, in
    // alternating slices so that drift in the host's speed hits both.
    std::vector<double> plain_us, traced_us;
    std::vector<Span> spans;
    for (int slice = 0; slice < 6; ++slice) {
      const bool traced = slice % 2 == 1;
      ClosedLoopResult loop = ClosedLoop(
          *fixture, refs, picker, half,
          kClosedStreamBase + static_cast<uint64_t>(slice * half),
          config.seconds * 0.1, traced, &tally);
      std::vector<double>& into = traced ? traced_us : plain_us;
      into.insert(into.end(), loop.request_us.begin(), loop.request_us.end());
      spans.insert(spans.end(), loop.spans.begin(), loop.spans.end());
    }

    // Layer by layer: the wire round trip, the same request through a
    // QuerySession of the harness's own, and an in-process replay.
    fro::LruPlanCache session_cache(128);
    fro::FeedbackStore session_feedback;
    fro::SessionOptions session_options;
    session_options.feedback = &session_feedback;
    fro::QuerySession session(&fixture->db, &session_cache, nullptr,
                              session_options);
    Replay replay;
    LayerCounters counters;
    fro::FroClient client;
    const bool connected =
        client.Connect("127.0.0.1", fixture->server->port()).ok();
    SpanLog replay_log(true, kReplayStream);
    SpanLog* log = &replay_log;
    SpanLog untraced(false, 0);
    // Warm the harness's session and replay like the server was warmed.
    const uint64_t warm =
        adhoc ? kAdhocWarmRequests : kHotWarmRounds * fixture->texts.size();
    for (uint64_t i = 0; i < warm; ++i) {
      const size_t text = picker.Pick(kWarmStream, i);
      fro::Request request;
      request.verb = fro::Verb::kQuery;
      request.argument = fixture->texts[text];
      session.Execute(request, nullptr);
      LayerCounters ignored;
      ReplayRequest(fixture->db, fixture->texts[text], refs[text], &replay,
                    &untraced, 0, 0, &ignored);
    }
    const int64_t end = NowNs() + static_cast<int64_t>(config.seconds * 0.4e9);
    for (uint64_t i = 0; NowNs() < end; ++i) {
      const size_t text = picker.Pick(kReplayStream, i);
      const std::string& query_text = fixture->texts[text];
      const uint64_t request_id = (uint64_t{kReplayStream} << 32) | i;
      ScopedSpan root(log, "request", 0, request_id);
      std::optional<fro::Result<fro::Response>> wire;
      if (connected) {
        ScopedSpan span(log, "server.wire", root.id(), request_id);
        wire = client.Query(query_text);
      }
      fro::Request request;
      request.verb = fro::Verb::kQuery;
      request.argument = query_text;
      fro::Response local;
      {
        ScopedSpan span(log, "server.session", root.id(), request_id);
        local = session.Execute(request, nullptr);
      }
      const bool replayed =
          ReplayRequest(fixture->db, query_text, refs[text], &replay, log,
                        root.id(), request_id, &counters);
      tally.attempted.fetch_add(1);
      if (!wire.has_value() || !Served(*wire, refs[text]) ||
          !local.status.ok() ||
          !MatchesReference(local.body, refs[text]) || !replayed) {
        tally.failed.fetch_add(1);
      }
    }
    client.Close();

    spans.insert(spans.end(), replay_log.spans().begin(),
                 replay_log.spans().end());
    const std::string well_formed = CheckSpanTree(spans);
    result.Detail("span_tree", JsonString(well_formed.empty() ? "ok"
                                                              : well_formed));
    if (!well_formed.empty()) result.correct = false;

    LayerInputs in;
    in.spans = &spans;
    in.counters = &counters;
    in.cache_delta = CacheDelta(cache_before, server.plan_cache().stats());
    in.max_q_error = server.feedback_store().stats().max_q_error;
    in.ast_hits = server.session().ast_hits() - ast_hits_before;
    in.ast_lookups =
        in.ast_hits + server.session().ast_misses() - ast_misses_before;
    in.refused = server.metrics().rejected() - rejected_before;
    const double plain_mean = Mean(plain_us);
    in.overhead_pct =
        plain_mean > 0 ? (Mean(traced_us) / plain_mean - 1) * 100 : 0;
    EmitLayerMetrics(in, &result);
    if (!config.spans_path.empty() && !WriteSpans(config.spans_path, spans)) {
      result.correct = false;
    }
    result.Detail("spans_file", JsonString(config.spans_path));
  }

  // Distinct texts among the open-loop schedule's requests.
  std::set<size_t> distinct;
  const uint64_t scheduled =
      kSlices * static_cast<uint64_t>(rate * config.seconds * 0.5 / kSlices);
  for (uint64_t k = 0; k < scheduled; ++k) {
    distinct.insert(picker.Pick(kOpenStream, k));
  }
  result.Detail("text_pool", std::to_string(fixture->texts.size()));
  const double share = scheduled == 0
                           ? 0
                           : static_cast<double>(distinct.size()) /
                                 static_cast<double>(scheduled);
  result.Detail("distinct_text_share", JsonNumber(share));
  result.attempted = tally.attempted.load();
  result.failed = tally.failed.load();
  if (result.failed > 0) result.correct = false;
  fixture->server->Stop();
  return result;
}

}  // namespace perfbench
