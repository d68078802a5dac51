// serve_storm: an open loop. One generator thread submits a seeded
// request_storm to PlanCache + ServeFrontend (1 worker) on a fixed schedule,
// at one fixed offered rate below saturation, with no deadlines and no queue
// bound. Shared clouds are revisited (cache hits, including
// lattice-translated periodic copies), unique small clouds are misses, and
// there is a dual class. The periodic class is served as kPeriodicMesh
// Coulomb; the image-shell Yukawa class is left out because one of its
// 4096-particle requests costs as much as ~170 others, so the storm would
// measure that one path. Latency runs from each request's scheduled send.
//
// It is the only workload that exercises serve and mesh. Its clouds are
// small, so plan builds and queueing dominate rather than tiles.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/direct_sum.hpp"
#include "core/engine.hpp"
#include "core/plan.hpp"
#include "mesh/mesh.hpp"
#include "serve/exec_context.hpp"
#include "serve/frontend.hpp"
#include "serve/plan_cache.hpp"
#include "serve/storm.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

constexpr double kRate = 60.0;  ///< offered requests per second
/// op_tail_ms percentile. p99 of one run's ~1200 requests is its 12th
/// largest latency and moved by about 25 % between runs of one seed on a
/// shared 4-core box, so the gated tail is p90; the traced run reports the
/// p99 as serve.op_p99_ms.
constexpr double kTail = 90.0;
constexpr double kTraceTail = 99.0;
constexpr double kGoodLatency = 0.050;  ///< goodput counts results within this
constexpr std::size_t kSharedSize = 2048;
constexpr std::size_t kSmallSize = 256;
constexpr std::size_t kOracleSamples = 32;
/// Shared clouds are revisited by hundreds of requests and dominate the
/// errors of their class, so their oracle samples more targets.
constexpr std::size_t kSharedOracleSamples = 256;
/// Plan cache budget: unique small plans are evicted, so memory plateaus
/// instead of growing with the storm.
constexpr std::size_t kCacheBytes = std::size_t(32) << 20;
constexpr std::size_t kBitwiseSamples = 16;
constexpr std::size_t kReplaysPerClass = 12;
/// Cold starts around the storm (about 0.07 s each).
constexpr std::size_t kColdStarts = 24;

enum class Class { kOpen = 0, kDual = 1, kMesh = 2 };

struct Storm {
  bltc::RequestStorm storm;
  bltc::serve::StormParams presets;
  double bound = 0.0;

  Class class_of(const bltc::StormRequest& req) const {
    if (req.boundary == bltc::StormBoundary::kPeriodic) return Class::kMesh;
    return req.traversal == bltc::StormTraversal::kDual ? Class::kDual
                                                        : Class::kOpen;
  }
  bltc::serve::ServeRequest request(std::size_t i) const {
    return bltc::serve::storm_request(storm, storm.requests[i], presets);
  }
  /// The (cloud, class) requests that hit once the shared plans are warm.
  std::vector<bltc::serve::ServeRequest> shared_requests() const {
    std::vector<bltc::serve::ServeRequest> out;
    for (std::size_t c = 0; c < 3 && c < storm.clouds.size(); ++c) {
      bltc::StormRequest req;
      req.cloud = c;
      req.shared = true;
      for (int k = 0; k < 3; ++k) {
        req.boundary = k == 2 ? bltc::StormBoundary::kPeriodic
                              : bltc::StormBoundary::kOpen;
        req.traversal = k == 1 ? bltc::StormTraversal::kDual
                               : bltc::StormTraversal::kBatched;
        out.push_back(bltc::serve::storm_request(storm, req, presets));
      }
    }
    return out;
  }
};

Storm make_storm(std::size_t requests, std::uint64_t seed) {
  bltc::StormSpec spec;
  spec.num_requests = requests;
  spec.num_shared = 3;
  spec.shared_size = kSharedSize;
  spec.small_size = kSmallSize;
  Storm s;
  s.storm = bltc::request_storm(spec, seed);
  s.presets = bltc::serve::default_storm_params(s.storm.box);
  s.presets.periodic.boundary = bltc::BoundaryConditions::kPeriodicMesh;
  s.presets.periodic_kernel = bltc::KernelSpec::coulomb();
  s.bound = apriori_bound(s.presets.open.theta, s.presets.open.degree);
  return s;
}

/// Sampled oracle values per plan key (lattice-translated copies share the
/// key and, being exact translations, the oracle). Errors are logged per
/// request class; rel_err is the worst class's.
class Oracle {
 public:
  explicit Oracle(const Storm& s) : s_(s) {}

  /// Gate storm request i's potentials; returns whether they are within
  /// bound.
  bool check(std::size_t i, const std::vector<double>& phi) {
    const bltc::StormRequest& r = s_.storm.requests[i];
    return check(s_.request(i), s_.class_of(r), r.shared, phi);
  }

  bool check(const bltc::serve::ServeRequest& req, Class cls, bool shared,
             const std::vector<double>& phi) {
    const bltc::Cloud& cloud = *req.sources;
    const std::vector<std::size_t> sample = bltc::sample_indices(
        cloud.size(), shared ? kSharedOracleSamples : kOracleSamples);
    const std::uint64_t key =
        bltc::serve::plan_key(cloud, req.params, req.backend);
    auto it = exact_.find(key);
    if (it == exact_.end()) {
      std::vector<double> exact =
          req.params.mesh()
              ? bltc::direct_sum_ewald_sampled(cloud, sample, cloud,
                                               req.params.domain)
              : bltc::direct_sum_sampled(cloud, sample, cloud, req.kernel);
      it = exact_.emplace(key, std::move(exact)).first;
    }
    if (phi.size() != cloud.size()) return false;
    std::vector<double> approx(sample.size());
    for (std::size_t k = 0; k < sample.size(); ++k) approx[k] = phi[sample[k]];
    // Every request is gated; each distinct plan is logged once, so a
    // shared cloud revisited hundreds of times does not outweigh the many
    // unique clouds of its class.
    const double err = sampled_error(it->second, approx);
    if (logged_.insert(key).second) logs_[static_cast<int>(cls)].add(err);
    return within_bound(err, s_.bound);
  }

  std::span<const ErrorLog> logs() const { return logs_; }

 private:
  const Storm& s_;
  ErrorLog logs_[3];
  std::set<std::uint64_t> logged_;
  std::map<std::uint64_t, std::vector<double>> exact_;
};

bltc::serve::PlanCache::Options cache_options() {
  bltc::serve::PlanCache::Options options;
  options.max_bytes = kCacheBytes;
  return options;
}

/// A warmed cache and frontend, as a serving deployment holds them.
struct Server {
  bltc::serve::PlanCache cache{cache_options()};
  std::unique_ptr<bltc::serve::ServeFrontend> frontend;

  Server(const Storm& s, Tracer& tracer) {
    bltc::serve::ServeOptions options;
    options.max_batch = 16;
    options.max_delay_ms = 0.5;
    options.workers = 1;
    frontend = std::make_unique<bltc::serve::ServeFrontend>(cache, options);
    for (const bltc::serve::ServeRequest& req : s.shared_requests()) {
      Tracer::Scope span(tracer, "serve", "PlanCache::get_or_build(warm)");
      cache.get_or_build(*req.sources, req.params, req.backend);
    }
  }
};

using Run = OpenLoopRun<bltc::serve::ServeResponse>;

Run open_loop(Server& server, const Storm& s, std::size_t n) {
  return run_open_loop<bltc::serve::ServeResponse>(
      n, kRate, [&](std::size_t i) { return server.frontend->submit(s.request(i)); });
}

std::vector<double> latencies(const Run& run) {
  std::vector<double> out(run.done.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = run.latency(i);
  return out;
}

/// Gate every response: errors, oracle breaches and (on a seeded sample)
/// mismatches against the synchronous evaluate_now path are failures.
/// Returns per-request pass flags.
std::vector<char> check_run(const Run& run, const Storm& s, Server& server,
                            Oracle& oracle, Record& record) {
  const std::size_t n = run.done.size();
  std::vector<char> ok(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    record.attempt();
    if (run.errors[i]) {
      ok[i] = 0;
      continue;
    }
    if (!oracle.check(i, run.results[i].phi)) ok[i] = 0;
  }
  std::mt19937_64 rng(record.options().seed ^ 0x5eedULL);
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < kBitwiseSamples && n > 0; ++k) {
    const std::size_t i = rng() % n;
    if (!ok[i]) continue;
    const bltc::serve::ServeResponse now =
        server.frontend->evaluate_now(s.request(i));
    if (!bit_identical(now.phi, run.results[i].phi)) {
      ok[i] = 0;
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    record.note(std::to_string(mismatches) +
                " sampled responses differ from evaluate_now bit for bit");
  }
  for (const char good : ok) {
    if (!good) record.fail();
  }
  return ok;
}

std::size_t storm_size(double seconds) {
  return std::max(static_cast<std::size_t>(kRate * seconds),
                  min_samples_for(kTraceTail));
}

void untraced(Record& record) {
  const double seconds = record.options().seconds;
  const Storm s = make_storm(storm_size(seconds), record.options().seed);
  Oracle oracle(s);

  // A first result is one request per class on one shared cloud, the cold
  // starts taking the shared clouds in turn, so the cold path costs the
  // same kind of work on every seed and its median covers several clouds.
  const std::vector<bltc::serve::ServeRequest> shared = s.shared_requests();
  const std::size_t clouds = shared.size() / 3;
  std::unique_ptr<Server> server, storm;
  std::vector<std::vector<double>> phi(3);
  std::size_t builds = 0;
  Tracer off(false);
  ColdStarts cold(
      record,
      [&] { server = std::make_unique<Server>(s, off); },
      [&] {
        std::vector<std::future<bltc::serve::ServeResponse>> pending;
        for (std::size_t k = 0; k < 3; ++k) {
          pending.push_back(
              server->frontend->submit(shared[3 * (builds % clouds) + k]));
        }
        for (std::size_t k = 0; k < 3; ++k) phi[k] = pending[k].get().phi;
      },
      [&] {
        for (std::size_t k = 0; k < 3; ++k) {
          record.attempt();
          if (!oracle.check(shared[3 * (builds % clouds) + k],
                            static_cast<Class>(k), true, phi[k])) {
            record.fail();
          }
        }
        if (++builds == kColdStarts / 2) {
          storm = std::move(server);
        } else {
          server.reset();
        }
      },
      0.0, kColdStarts);

  // Half the cold starts run before the storm and half after it, so that
  // one burst of load elsewhere on the machine cannot move them all. The
  // storm runs against the last server built before it, its shared plans
  // warm.
  for (std::size_t k = 0; k < kColdStarts / 2; ++k) cold.run_due();
  const Run run = open_loop(*storm, s, s.storm.requests.size());
  const std::vector<char> ok = check_run(run, s, *storm, oracle, record);
  const std::vector<double> latency = latencies(run);
  const std::size_t n = latency.size();
  record.set("op_p50_ms", p50_ms(latency), n);
  if (const auto tail = percentile(latency, kTail)) {
    record.set("op_tail_ms", *tail * 1e3, n);
  }
  record.meta("op_tail_percentile", std::to_string(kTail));
  std::size_t good = 0;
  double end = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    end = std::max(end, run.done[i]);
    if (ok[i] && latency[i] <= kGoodLatency) ++good;
  }
  record.set("goodput_rps", end > 0.0 ? static_cast<double>(good) / end : 0.0,
             n);
  storm.reset();
  cold.finish();
  set_accuracy_metrics(record, oracle.logs());
}

/// The miss path of one request replayed through the layer entry points:
/// a cold PlanCache::get_or_build, then the source plan, moments, target
/// plan, lists, engine call and (periodic class) the mesh far field.
/// With `report`, records the plan structure and engine work of this
/// replay as the workload's plan.* and cpu_engine.* counts.
void replay_miss(Tracer& tracer, const bltc::serve::ServeRequest& req,
                 long op, bool report, Record& record) {
  const bltc::Cloud& cloud = *req.sources;
  const bltc::TreecodeParams& params = req.params;
  tracer.begin_op(op, "miss_replay");
  {
    bltc::serve::PlanCache cold;
    Tracer::Scope s(tracer, "serve", "PlanCache::get_or_build(miss)");
    cold.get_or_build(cloud, params, req.backend);
  }
  std::unique_ptr<bltc::Engine> engine;
  {
    Tracer::Scope s(tracer, "cpu_engine", "make_engine");
    engine = bltc::make_engine(bltc::Backend::kCpu, {});
  }
  bltc::SourcePlanState source;
  {
    Tracer::Scope s(tracer, "plan", "SourcePlanState::build");
    source = bltc::SourcePlanState::build(cloud, params);
  }
  std::unique_ptr<bltc::mesh::MeshPlan> mesh;
  if (params.mesh()) {
    Tracer::Scope s(tracer, "mesh", "MeshPlan::MeshPlan");
    mesh = std::make_unique<bltc::mesh::MeshPlan>(source.particles, params);
  }
  {
    Tracer::Scope s(tracer, "moments", "Engine::prepare_sources");
    engine->prepare_sources(source.view(), params, false);
  }
  bltc::TargetPlanState targets;
  {
    Tracer::Scope s(tracer, "plan", "TargetPlanState::plan");
    targets = bltc::TargetPlanState::plan(cloud, params);
  }
  {
    Tracer::Scope s(tracer, "plan", "TargetPlanState::append_lists");
    targets.append_lists(source.tree, params);
  }
  if (mesh != nullptr) {
    Tracer::Scope s(tracer, "mesh", "MeshPlan::solve");
    mesh->solve();
  }
  bltc::RunStats stats;
  bltc::ExecContext ctx;
  std::vector<double> phi;
  {
    Tracer::Scope s(tracer, "cpu_engine", "Engine::evaluate_potential");
    const bltc::KernelSpec kernel =
        params.mesh() ? bltc::mesh::mesh_near_kernel(params) : req.kernel;
    phi = engine->evaluate_potential(source.view(), targets.view(), kernel,
                                     true, stats, &ctx);
  }
  if (mesh != nullptr) {
    Tracer::Scope s(tracer, "mesh", "Engine::mesh_far_field");
    engine->mesh_far_field(*mesh, targets.view(), phi, nullptr, stats);
    record.set("mesh.points", static_cast<double>(mesh->grid_points()), 1);
  }
  tracer.end_op();
  if (!report) return;
  const bltc::InteractionLists& lists = targets.lists.front();
  record.set("plan.clusters", static_cast<double>(source.tree.num_nodes()), 1);
  record.set("plan.pc_pairs", static_cast<double>(lists.total_approx), 1);
  record.set("plan.direct_pairs", static_cast<double>(lists.total_direct), 1);
  record.set("plan.cp_pairs", 0.0, 1);
  record.set("plan.cc_pairs", 0.0, 1);
  set_engine_counters(record, stats,
                      tracer.durations("Engine::evaluate_potential").back());
}

void traced(Record& record) {
  const double seconds = record.options().seconds;
  const Storm s = make_storm(storm_size(seconds), record.options().seed);
  Oracle oracle(s);
  const std::size_t n = s.storm.requests.size();

  // Untraced baseline storm (a third of the requests) for the overhead.
  double untraced_p50 = 0.0;
  {
    Tracer off(false);
    Server server(s, off);
    const Run run = open_loop(server, s, std::max<std::size_t>(n / 3, 20));
    check_run(run, s, server, oracle, record);
    untraced_p50 = p50_ms(latencies(run));
  }

  Tracer tracer(true);
  tracer.begin_op(0, "warm");
  Server server(s, tracer);
  tracer.end_op();
  const bltc::serve::CacheStats warm = server.cache.stats();
  const double origin = tracer.now();
  const Run run = open_loop(server, s, n);
  const bltc::serve::CacheStats after = server.cache.stats();
  // A request's root span starts when the generator sent it: the time it
  // waited to be sent is the generator's own lateness (serve.late_p99_ms),
  // not time spent in the program. End-to-end latency still counts it.
  for (std::size_t i = 0; i < n; ++i) {
    Span root;
    root.name = "request";
    root.start = origin + run.sent[i];
    root.end = origin + run.done[i];
    root.op = static_cast<long>(i) + 1;
    Span call;
    call.layer = "serve";
    call.name = "ServeFrontend::submit+get";
    call.start = origin + run.sent[i];
    call.end = root.end;
    call.op = root.op;
    call.parent = tracer.add(root);
    tracer.add(call);
  }
  check_run(run, s, server, oracle, record);

  std::vector<double> queue, execute, late;
  double group = 0.0;
  std::size_t served = 0;
  for (std::size_t i = 0; i < n; ++i) {
    late.push_back(run.lateness(i));
    if (run.errors[i]) continue;
    const bltc::serve::ServeResponse& r = run.results[i];
    queue.push_back(r.queue_seconds);
    execute.push_back(r.execute_seconds);
    group += static_cast<double>(r.group_size);
    ++served;
  }
  const auto ms = [](const std::vector<double>& v, double p) {
    return percentile(v, p).value_or(-1e-3) * 1e3;
  };
  record.set("serve.queue_p50_ms", ms(queue, 50.0), queue.size());
  if (percentile(queue, kTraceTail)) {
    record.set("serve.queue_p99_ms", ms(queue, kTraceTail), queue.size());
  }
  const std::vector<double> latency = latencies(run);
  if (percentile(latency, kTraceTail)) {
    record.set("serve.op_p99_ms", ms(latency, kTraceTail), latency.size());
  }
  record.set("serve.execute_p50_ms", ms(execute, 50.0), execute.size());
  record.set("serve.group_size_mean",
             served > 0 ? group / static_cast<double>(served) : 0.0, served);
  if (percentile(late, kTraceTail)) {
    record.set("serve.late_p99_ms", ms(late, kTraceTail), late.size());
  }
  const double hits = static_cast<double>(after.hits - warm.hits);
  const double misses = static_cast<double>(after.misses - warm.misses);
  record.set("serve.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
             static_cast<std::size_t>(hits + misses));

  // Layer split of the miss path: every shared (cloud, class) plan, then
  // the first kReplaysPerClass unique clouds of each class in storm order.
  long op = static_cast<long>(n) + 1;
  // The plan.* and cpu_engine.* counts are those of shared cloud 0 under
  // the open class, the first replay.
  for (const bltc::serve::ServeRequest& req : s.shared_requests()) {
    replay_miss(tracer, req, op, op == static_cast<long>(n) + 1, record);
    ++op;
  }
  std::size_t replayed[3] = {0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const bltc::StormRequest& req = s.storm.requests[i];
    std::size_t& count = replayed[static_cast<int>(s.class_of(req))];
    if (req.shared || count >= kReplaysPerClass) continue;
    ++count;
    replay_miss(tracer, s.request(i), op++, false, record);
  }
  set_span_median(tracer, record, "PlanCache::get_or_build(miss)",
                  "serve.plan_build_s");
  set_span_median(tracer, record, "SourcePlanState::build",
                  "plan.source_build_s");
  set_span_median(tracer, record, "TargetPlanState::plan",
                  "plan.target_plan_s");
  set_span_median(tracer, record, "TargetPlanState::append_lists",
                  "plan.lists_s");
  set_span_median(tracer, record, "Engine::prepare_sources",
                  "moments.prepare_s");
  set_span_median(tracer, record, "Engine::evaluate_potential",
                  "cpu_engine.eval_s");
  set_span_median(tracer, record, "MeshPlan::MeshPlan", "mesh.spread_s");
  set_span_median(tracer, record, "MeshPlan::solve", "mesh.solve_s");
  set_span_median(tracer, record, "Engine::mesh_far_field", "mesh.gather_s");
  record.note(
      "serve_storm traced run: request spans come from the open-loop storm "
      "through ServeFrontend; the plan, moments, cpu_engine and mesh spans "
      "come from replaying the miss path of every shared plan and of the "
      "first " +
      std::to_string(kReplaysPerClass) +
      " unique clouds of each class through the layer entry points");
  finish_trace(tracer, record, untraced_p50, p50_ms(latency));
}

}  // namespace

void run_serve_storm(Record& record) {
  record.meta("offered_rate_rps", std::to_string(kRate));
  record.meta("loop", "open loop, 1 generator thread, 1 frontend worker, "
                      "max_batch 16, max_delay 0.5 ms, no deadline, no "
                      "queue bound");
  record.meta("mix", "3 shared " + std::to_string(kSharedSize) +
                         "-particle clouds (open, dual, periodic mesh "
                         "Coulomb; translated periodic copies) and unique " +
                         std::to_string(kSmallSize) +
                         "-particle clouds; theta=0.7 n=6 N_L=N_B=128");
  record.meta("goodput_latency_ms", std::to_string(kGoodLatency * 1e3));
  if (record.options().trace) {
    traced(record);
  } else {
    untraced(record);
  }
}

}  // namespace perfbench
