/// \file paper_sweep.cpp
/// Workload paper_sweep: the paper's evaluation at paper scale.
///
/// Set-up: for each of kSweeps seeded sweeps, the calibrated radius of every
/// (D, N) point of the grid and of the lossy ladder. One pass then runs one
/// sweep, all through run_trials on the pool with a fixed trial count per
/// point (so the work does not depend on when the stopping rule would fire):
///  * the Fig. 5/6 grid, D in {6, 10}, k in {1..4}, N in {50, 75, ..., 200}:
///    one topology per trial, clustered once, all five pipelines built on it
///    and each backbone checked by validate_k_cds;
///  * the ext_lossy radio ladder through run_lossy_sweep_point: unit-disk
///    links at ambient loss 0..0.5, then the three radio models at loss 0.2,
///    each with retry budgets 0 and 2.
#include <iostream>
#include <mutex>
#include <tuple>

#include "khop/cds/cds.hpp"
#include "khop/exp/experiment.hpp"
#include "khop/exp/lossy.hpp"
#include "khop/net/generator.hpp"
#include "khop/obs/telemetry.hpp"
#include "khop/obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace khop;

namespace {

constexpr double kDegrees[] = {6.0, 10.0};
constexpr Hops kHops[] = {1, 2, 3, 4};
constexpr std::size_t kSizes[] = {50, 75, 100, 125, 150, 175, 200};
constexpr std::size_t kGridTrials = 100;
constexpr std::size_t kLadderTrials = 40;
/// Sweeps the run cycles through, one per pass (see input_seed): the
/// calibrated radii follow the seed, and with them the heaviest trials, so
/// one sweep's trial p95 stayed put on a seed (1.83 ms on one, 1.60 ms on
/// another, twice each) while p50 moved by 1%.
constexpr std::size_t kSweeps = 5;

struct LadderPoint {
  RadioKind radio;
  double loss;
  std::size_t retry;
};

std::vector<LadderPoint> ladder() {
  std::vector<LadderPoint> points;
  for (double loss : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    for (std::size_t retry : {0u, 2u}) {
      points.push_back({RadioKind::kUnitDisk, loss, retry});
    }
  }
  for (RadioKind radio : {RadioKind::kUnitDisk, RadioKind::kQuasiUnitDisk,
                          RadioKind::kLogNormal}) {
    for (std::size_t retry : {0u, 2u}) points.push_back({radio, 0.2, retry});
  }
  return points;
}

LossyExperimentConfig ladder_base() {
  LossyExperimentConfig cfg;
  cfg.num_nodes = 100;
  cfg.avg_degree = 6.0;
  cfg.k = 2;
  cfg.pipeline = Pipeline::kAcLmst;
  cfg.qudg_inner_fraction = 0.6;
  cfg.shadowing_sigma_db = 4.0;
  return cfg;
}

TrialPolicy fixed_policy(std::size_t trials) {
  TrialPolicy policy;
  policy.min_trials = trials;
  policy.max_trials = trials;
  return policy;
}

struct Radii {
  std::vector<double> grid;  ///< kDegrees x kSizes, row-major
  double ladder = 0.0;
};

Radii calibrate(std::uint64_t seed) {
  Radii r;
  for (double d : kDegrees) {
    for (std::size_t n : kSizes) {
      ExperimentConfig cfg;
      cfg.num_nodes = n;
      cfg.avg_degree = d;
      r.grid.push_back(resolve_radius(
          cfg, seed + 100 * n + static_cast<std::uint64_t>(d)));
    }
  }
  r.ladder = resolve_lossy_radius(ladder_base(), seed);
  return r;
}

/// One grid trial's outputs.
struct TrialOut {
  bool ok = false;
  double heads = 0, rounds = 0, edges = 0, cds = 0;
  double generate_ms = 0, elect_ms = 0, backbone_ms = 0, validate_ms = 0;
  double trial_ms = 0;
};

/// One pass, folded as it runs so the run's own bookkeeping stays out of
/// the memory it reports.
struct Pass {
  bool traced = false;
  double work_s = 0.0;
  double grid_s = 0.0;
  std::size_t trials = 0;
  std::size_t grid_trials = 0;
  std::size_t ladder_trials = 0;
  OpLatency grid_trial;  ///< latency quantiles of the grid trials
  double busy_s = 0.0;   ///< sum of grid trial times
  double generate_ms = 0, elect_ms = 0, backbone_ms = 0, validate_ms = 0;
  std::uint64_t grid_allocs = 0;
  /// Counts that must repeat exactly for a seed. digest weighs every grid
  /// trial's (heads, CDS size, rounds) by its position.
  double heads = 0, rounds = 0, edges = 0, cds = 0, digest = 0;
  double drops = 0, retransmissions = 0, delivery = 0;

  auto counts() const {
    return std::tuple(heads, rounds, edges, cds, digest, drops,
                      retransmissions, delivery);
  }
};

/// Checks the ladder point's aggregate against invariants that hold for any
/// random stream: ratios in [0, 1], exact ideal delivery at zero loss on
/// unit disks, no retries without a budget, and every final drop having used
/// the whole budget.
std::string check_ladder_point(const LadderPoint& lp, const LossySweepPoint& p) {
  const auto in_unit = [](const RunningStats& s) {
    return s.mean() >= 0.0 && s.mean() <= 1.0;
  };
  if (p.trials != kLadderTrials) return "wrong trial count";
  if (!in_unit(p.blind_delivery) || !in_unit(p.cds_delivery) ||
      !in_unit(p.backbone_survival) || p.drops.mean() < 0.0) {
    return "a ratio or count is out of range";
  }
  if (lp.radio == RadioKind::kUnitDisk && lp.loss == 0.0 &&
      (p.cds_delivery.mean() != 1.0 || p.blind_delivery.mean() != 1.0 ||
       p.drops.mean() != 0.0 || p.backbone_survival.mean() != 1.0)) {
    return "lossless unit disk did not deliver everything";
  }
  if (lp.retry == 0 && p.retransmissions.mean() != 0.0) {
    return "retransmissions without a retry budget";
  }
  if (p.retransmissions.mean() + 1e-9 <
      static_cast<double>(lp.retry) * p.drops.mean()) {
    return "fewer retransmissions than the drops' retry budget";
  }
  return {};
}

void run_pass(std::uint64_t seed, const Radii& radii, ThreadPool& pool,
              RunResult& r, Pass& p) {
  const double t0 = wall_now();
  const std::uint64_t allocs0 = alloc_count();
  std::mutex error_mu;
  std::string first_error;
  std::size_t point = 0;
  std::vector<double> trial_ms;
  for (std::size_t di = 0; di < std::size(kDegrees); ++di) {
    for (const Hops k : kHops) {
      for (std::size_t ni = 0; ni < std::size(kSizes); ++ni, ++point) {
        const std::size_t n = kSizes[ni];
        const double radius = radii.grid[di * std::size(kSizes) + ni];
        std::vector<TrialOut> out(kGridTrials);
        run_trials(
            pool, fixed_policy(kGridTrials), Rng(seed * 1000 + point), 1,
            [&](Rng& rng, std::size_t trial, Workspace& ws) {
              TrialOut& t = out[trial];
              const double t_trial = wall_now();
              try {
                GeneratorConfig gen;
                gen.num_nodes = n;
                gen.explicit_radius = radius;
                double ts = wall_now();
                AdHocNetwork net;
                {
                  obs::Span span("net.generate");
                  net = generate_network(gen, rng, ws);
                }
                t.generate_ms = 1e3 * (wall_now() - ts);
                ts = wall_now();
                Clustering c;
                {
                  obs::Span span("cluster.elect");
                  c = khop_clustering(
                      net.graph, k,
                      make_priorities(net.graph, PriorityRule::kLowestId),
                      AffiliationRule::kIdBased, ws);
                }
                t.elect_ms = 1e3 * (wall_now() - ts);
                std::string err;
                for (const Pipeline pl : kAllPipelines) {
                  ts = wall_now();
                  Backbone b;
                  {
                    obs::Span span("gateway.backbone");
                    b = build_backbone(net.graph, c, pl, ws);
                  }
                  t.backbone_ms += 1e3 * (wall_now() - ts);
                  ts = wall_now();
                  {
                    obs::Span span("cds.validate");
                    if (err.empty()) err = validate_k_cds(net.graph, c, b);
                  }
                  t.validate_ms += 1e3 * (wall_now() - ts);
                  t.cds += static_cast<double>(b.cds_size());
                }
                t.heads = static_cast<double>(c.heads.size());
                t.rounds = static_cast<double>(c.election_rounds);
                t.edges = static_cast<double>(net.graph.num_edges());
                t.ok = err.empty();
                if (!t.ok) throw std::runtime_error(err);
              } catch (const std::exception& e) {
                t.ok = false;
                const std::lock_guard<std::mutex> lock(error_mu);
                if (first_error.empty()) {
                  first_error =
                      "grid point " + std::to_string(point) + ": " + e.what();
                }
              }
              t.trial_ms = 1e3 * (wall_now() - t_trial);
              return std::vector<double>{0.0};
            });
        for (const TrialOut& t : out) {
          r.op(t.ok ? ""
                    : (first_error.empty() ? "grid trial failed" : first_error));
          trial_ms.push_back(t.trial_ms);
          p.busy_s += 1e-3 * t.trial_ms;
          p.generate_ms += t.generate_ms;
          p.elect_ms += t.elect_ms;
          p.backbone_ms += t.backbone_ms;
          p.validate_ms += t.validate_ms;
          p.heads += t.heads;
          p.rounds += t.rounds;
          p.edges += t.edges;
          p.cds += t.cds;
          ++p.grid_trials;
          p.digest += static_cast<double>(p.grid_trials) *
                      (t.heads + 31.0 * t.cds + 977.0 * t.rounds);
        }
      }
    }
  }
  p.grid_s = wall_now() - t0;
  p.grid_allocs = alloc_count() - allocs0;
  p.grid_trial = op_latency(trial_ms);

  const std::vector<LadderPoint> points = ladder();
  for (std::size_t i = 0; i < points.size(); ++i) {
    LossyExperimentConfig cfg = ladder_base();
    cfg.radius = radii.ladder;
    cfg.radio = points[i].radio;
    cfg.ambient_loss = points[i].loss;
    cfg.retry_budget = points[i].retry;
    std::string err;
    std::size_t trials = kLadderTrials;
    try {
      const LossySweepPoint lp = run_lossy_sweep_point(
          pool, cfg, fixed_policy(kLadderTrials), seed * 1000 + 500 + i);
      err = check_ladder_point(points[i], lp);
      trials = lp.trials;
      const auto total = static_cast<double>(lp.trials);
      p.drops += lp.drops.mean() * total;
      p.retransmissions += lp.retransmissions.mean() * total;
      p.delivery += lp.cds_delivery.mean() * total;
      p.ladder_trials += lp.trials;
    } catch (const std::exception& e) {
      err = e.what();
    }
    for (std::size_t t = 0; t < trials; ++t) {
      r.op(prefixed("ladder point " + std::to_string(i), err));
    }
  }
  p.trials = p.grid_trials + p.ladder_trials;
  p.work_s = wall_now() - t0;
}

}  // namespace

RunResult run_paper_sweep(const Options& opt) {
  std::cout << "paper_sweep: Fig. 5/6 grid (D in {6, 10}, k in 1..4, N in "
               "50..200, five pipelines per topology, "
            << kGridTrials << " trials per point) + ext_lossy ladder ("
            << ladder().size() << " points, " << kLadderTrials
            << " trials each), " << kSweeps
            << " seeded sweeps, one per pass, pool of " << pool_threads()
            << " threads\n"
            << "input id order: generator ids (uniform random placement)\n";
  ThreadPool pool(pool_threads());
  RunResult r;

  std::vector<double> setup_s;
  std::vector<Radii> radii;
  for (std::size_t i = 0; i < kSweeps; ++i) {
    Meter m;
    {
      obs::Span span("net.calibrate");
      radii.push_back(calibrate(input_seed(opt, i, kSweeps)));
    }
    m.stop();
    setup_s.push_back(m.wall_s());
  }

  std::vector<Pass> passes;
  const double t_start = wall_now();
  while (want_pass(opt, t_start, passes.size(), 2)) {
    Pass p;
    p.traced = begin_pass(opt, passes.size());
    run_pass(input_seed(opt, passes.size(), kSweeps),
             radii[passes.size() % kSweeps], pool, r, p);
    pool.wait_idle();
    obs::set_enabled(false);
    std::cout << "pass " << passes.size() << (p.traced ? " (traced)" : "")
              << ": " << p.trials << " trials in " << p.work_s << " s (grid "
              << p.grid_s << " s, trial p50 " << p.grid_trial.p50_ms
              << " ms, p95 " << p.grid_trial.p95_ms << " ms)\n";
    passes.push_back(std::move(p));
  }
  if (opt.trace) write_trace(opt);

  std::vector<bool> traced;
  for (const Pass& p : passes) traced.push_back(p.traced);
  const std::vector<bool> measured = measured_passes(opt, traced);
  std::vector<double> work_s, measured_work_s, rate;
  std::vector<OpLatency> ops;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    work_s.push_back(p.work_s);
    if (i >= kSweeps && p.counts() != passes[i - kSweeps].counts()) {
      r.op("counts differ between passes of one sweep");
    }
    if (!measured[i]) continue;
    measured_work_s.push_back(p.work_s);
    ops.push_back(p.grid_trial);
    rate.push_back(static_cast<double>(p.trials) / p.work_s);
  }
  set_end_to_end(r, setup_s, measured_work_s, ops);
  std::cout << "workload metrics:\n"
            << "  trials_per_s        " << median(rate) << " 1/s\n";

  // Per-layer: medians over the measured passes of each pass's mean per
  // grid trial.
  const std::size_t threads = pool.num_threads();
  const auto pass_median = [&](auto field) {
    std::vector<double> v;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      if (measured[i]) v.push_back(field(passes[i]));
    }
    return median(v);
  };
  const auto per_trial = [&](double Pass::*sum) {
    return pass_median([sum](const Pass& p) {
      return p.*sum / static_cast<double>(p.grid_trials);
    });
  };
  Metrics& m = r.per_layer;
  set_layer(m, "net.generate_ms", per_trial(&Pass::generate_ms));
  set_layer(m, "net.calibrate_s", median(setup_s));
  set_layer(m, "cluster.elect_ms", per_trial(&Pass::elect_ms));
  set_layer(m, "gateway.backbone_ms", per_trial(&Pass::backbone_ms));
  set_layer(m, "cds.validate_ms", per_trial(&Pass::validate_ms));
  set_layer(m, "exp.trial_ms_p50",
            pass_median([](const Pass& p) { return p.grid_trial.p50_ms; }));
  set_layer(m, "exp.allocs_per_trial", pass_median([](const Pass& p) {
              return static_cast<double>(p.grid_allocs) /
                     static_cast<double>(p.grid_trials);
            }));
  set_layer(m, "runtime.pool_util", pass_median([&](const Pass& p) {
              return p.busy_s / (p.grid_s * static_cast<double>(threads));
            }));
  const Pass& first = passes.front();
  set_layer(m, "exp.trials", static_cast<double>(first.trials));
  set_layer(m, "cluster.heads", first.heads);
  set_layer(m, "cluster.rounds", first.rounds);
  set_layer(m, "graph.edges", first.edges);
  set_layer(m, "gateway.cds_size", first.cds);
  set_layer(m, "radio.drops", first.drops);
  set_layer(m, "radio.retransmissions", first.retransmissions);
  set_layer(m, "radio.delivery_ratio",
            first.delivery / static_cast<double>(first.ladder_trials));
  set_layer(m, "obs.trace_overhead_pct", trace_overhead_pct(work_s, traced));
  return r;
}

}  // namespace perfbench
