// DALTA end-to-end benchmark harness (see dalta_bench/README.md).
//
//   dalta_bench run --workload <name> --seed <n> --seconds <s>
//                   [--trace 0|1] [--spans <file>]
//   dalta_bench selftest --seed <n> --seed2 <n>
//
// `run` decomposes the workload's problems through the public entry point
// run_dalta in a closed loop and verifies every result through the LUT
// evaluator. With --trace 1 it then replays the same decompositions from
// the layers' public functions, timing each call from outside, and writes
// the spans to --spans. Every record goes to stdout as one JSON object per
// line; dalta_bench/run.py turns them into metrics.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "boolean/error_metrics.hpp"
#include "core/dalta.hpp"
#include "core/partition_screen.hpp"
#include "core/solver_registry.hpp"
#include "funcs/registry.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "support/cpu_features.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace adsd;

// ---------------------------------------------------------------------------
// Workloads. Every workload runs joint mode with R = 1. A pass decomposes
// each function once in each of `slots_per_pass` input labelings drawn from
// the run seed (slot 0 is the function as built); one (function, slot) pair
// is a "problem". Relabeling the inputs under a uniformly random partition
// sampler gives an independent problem of the same difficulty. A single
// DALTA run's MED varies by 20-30% between problems, so the per-run `med`
// averages over the pass to stay comparable across run seeds.

struct Workload {
  const char* name;
  const char* spec;  // registry spec; "n" is filled in as adsd_cli does
  unsigned n;
  unsigned free_size;
  std::size_t partitions;     // P
  std::size_t screen_factor;  // 1 = no screening
  std::vector<std::string> functions;
  std::size_t slots_per_pass;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"bsb-n12", "prop", 12, 6, 16, 1, {"erf", "cos"}, 6},
      {"pack-n12", "prop,pack=16", 12, 6, 16, 1, {"erf", "cos"}, 6},
      {"screen-n16", "dalta", 16, 7, 16, 4, {"multiplier"}, 4},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) {
      return w;
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Input labeling of problem slot j: identity for slot 0, otherwise a
/// Fisher-Yates shuffle keyed by (run seed, j), so the same --seed always
/// yields the same problems.
std::vector<unsigned> slot_labeling(unsigned n, std::uint64_t run_seed,
                                    std::size_t j) {
  std::vector<unsigned> perm(n);
  for (unsigned i = 0; i < n; ++i) {
    perm[i] = i;
  }
  std::uint64_t state = splitmix64(run_seed) ^ (0x51ed27ULL * (j + 1));
  for (unsigned i = n; j > 0 && i > 1; --i) {
    state = splitmix64(state);
    std::swap(perm[i - 1], perm[state % i]);
  }
  return perm;
}

/// `base` with input bit i of the new table feeding input perm[i].
TruthTable relabel_inputs(const TruthTable& base,
                          const std::vector<unsigned>& perm) {
  TruthTable out(base.num_inputs(), base.num_outputs());
  for (std::uint64_t x = 0; x < base.num_patterns(); ++x) {
    std::uint64_t y = 0;
    for (unsigned i = 0; i < perm.size(); ++i) {
      y |= ((x >> i) & 1u) << perm[i];
    }
    out.set_word(x, base.word(y));
  }
  return out;
}

std::unique_ptr<CoreCopSolver> make_solver(const std::string& spec,
                                           unsigned n) {
  const SolverRegistry& registry = SolverRegistry::global();
  auto [name, config] = SolverRegistry::parse_spec(spec);
  const SolverRegistry::Entry* entry = registry.find(name);
  if (entry != nullptr &&
      std::find(entry->keys.begin(), entry->keys.end(), "n") !=
          entry->keys.end() &&
      !config.has("n")) {
    config.set("n", std::to_string(n));
  }
  return registry.make(name, config);
}

// ---------------------------------------------------------------------------
// Output: one JSON object per line, flushed, so a crash loses nothing
// already reported.

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Record {
 public:
  explicit Record(const char* event) { body_ = "{\"event\":" + json_str(event); }
  Record& num(const char* key, double v) {
    return raw(key, json_num(v));
  }
  Record& str(const char* key, const std::string& v) {
    return raw(key, json_str(v));
  }
  Record& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Record& nums(const char* key, const std::vector<double>& vs) {
    std::string a = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      a += (i ? "," : "") + json_num(vs[i]);
    }
    return raw(key, a + "]");
  }
  void emit() const {
    std::fputs((body_ + "}\n").c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  Record& raw(const char* key, const std::string& v) {
    body_ += "," + json_str(key) + ":" + v;
    return *this;
  }
  std::string body_;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host speed probe: median time of a fixed dependent multiply-add chain
/// of 8M cycles, 2 ms at 4 GHz. It runs no repository code, so it moves
/// only with the host's clock (run.py rescales the end-to-end times by it).
double host_probe_ms() {
  std::vector<double> ms;
  for (int r = 0; r < 5; ++r) {
    const double t0 = now_s();
    std::uint64_t x = 1;
    for (int i = 0; i < 2000000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      asm volatile("" : "+r"(x));
    }
    ms.push_back((now_s() - t0) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[2];
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Span recorder for the traced replay: per-thread buffers, registered once
// per thread and written out after the run. Recording is off unless the
// replay is running, so the untraced loop pays one branch per site.

struct Span {
  const char* name;
  std::uint32_t decomposition;
  std::uint32_t tid;
  double t0;
  double t1;
  double a;  // name-specific attributes (README, span table)
  double b;
};

class SpanLog {
 public:
  static SpanLog& global() {
    static SpanLog log;
    return log;
  }

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  void set_decomposition(std::uint32_t id) {
    decomposition_.store(id, std::memory_order_relaxed);
  }

  void record(const char* name, double t0, double t1, double a, double b) {
    thread_local Buffer* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(Buffer{static_cast<std::uint32_t>(buffers_.size()), {}});
      buf = &buffers_.back();
    }
    buf->spans.push_back(Span{name,
                              decomposition_.load(std::memory_order_relaxed),
                              buf->tid, t0, t1, a, b});
  }

  /// Writes every span as one JSON line. Call only while no thread records.
  void write(const std::string& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out) {
      throw std::runtime_error("cannot write spans to '" + path + "'");
    }
    for (const Buffer& buf : buffers_) {
      for (const Span& s : buf.spans) {
        out << "{\"name\":" << json_str(s.name) << ",\"d\":" << s.decomposition
            << ",\"tid\":" << s.tid << ",\"t0\":" << json_num(s.t0)
            << ",\"t1\":" << json_num(s.t1) << ",\"a\":" << json_num(s.a)
            << ",\"b\":" << json_num(s.b) << "}\n";
      }
    }
  }

 private:
  struct Buffer {
    std::uint32_t tid;
    std::vector<Span> spans;
  };
  std::atomic<bool> on_{false};
  std::atomic<std::uint32_t> decomposition_{0};
  std::mutex mutex_;
  std::deque<Buffer> buffers_;  // deque: buffer addresses stay stable
};

/// Times its scope as one span when recording is on.
class Scoped {
 public:
  explicit Scoped(const char* name)
      : name_(name), on_(SpanLog::global().on()), t0_(on_ ? now_s() : 0.0) {}
  ~Scoped() {
    if (on_) {
      SpanLog::global().record(name_, t0_, now_s(), a, b);
    }
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  double a = 0.0;
  double b = 0.0;

 private:
  const char* name_;
  bool on_;
  double t0_;
};

// ---------------------------------------------------------------------------
// Set-up: truth tables, distribution, solver, and the RunContext with its
// private pool of threads - 1 workers (the calling thread participates in
// every parallel-for).

struct Host {
  unsigned nproc = 1;
  std::size_t threads = 1;  // participating threads, caller included
  std::size_t workers = 0;  // pool workers = threads - 1
};

Host detect_host() {
  Host h;
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = online > 0 ? static_cast<unsigned>(online) : 1;
  h.threads = std::min<std::size_t>(4, h.nproc);
  h.workers = h.threads - 1;
  return h;
}

struct Setup {
  std::vector<TruthTable> tables;  // per function
  std::optional<InputDistribution> dist;
  std::unique_ptr<CoreCopSolver> solver;
  std::unique_ptr<RunContext> ctx;
  DaltaParams params;
};

std::unique_ptr<Setup> make_setup(const Workload& w, const Host& host,
                                  std::uint64_t run_seed) {
  auto s = std::make_unique<Setup>();
  for (const std::string& fn : w.functions) {
    Scoped span("funcs.table");
    s->tables.push_back(
        make_benchmark_table(fn, w.n, paper_output_bits(fn, w.n)));
  }
  s->dist = InputDistribution::uniform(w.n);
  s->solver = make_solver(w.spec, w.n);
  RunContext::Options opts;
  opts.seed = splitmix64(run_seed);
  opts.threads = std::max<std::size_t>(1, host.workers);
  opts.parallel = host.workers > 0;
  s->ctx = std::make_unique<RunContext>(opts);
  if (host.workers > 0) {
    s->ctx->pool();  // start the workers inside set-up
  }
  s->params.free_size = w.free_size;
  s->params.num_partitions = w.partitions;
  s->params.rounds = 1;
  s->params.mode = DecompMode::kJoint;
  s->params.screen_factor = w.screen_factor;
  return s;
}

// ---------------------------------------------------------------------------
// Verification: the LUT network must reproduce DaltaResult::approx on all
// 2^n patterns, and the MED recomputed from the network must equal
// DaltaResult::med bit for bit.

struct Verdict {
  bool ok = true;
  std::string reason;
  double med = 0.0;
};

Verdict verify(const TruthTable& exact, const InputDistribution& dist,
               const DaltaResult& res) {
  Verdict v;
  v.med = res.med;
  TruthTable realized(1, 1);
  {
    Scoped span("lut.verify");
    realized = res.to_lut_network().to_truth_table();
    if (realized != res.approx) {
      v.ok = false;
      v.reason = "LUT network differs from DaltaResult::approx";
      return v;
    }
  }
  Scoped span("boolean.error_metrics");
  const double med = mean_error_distance(exact, realized, dist);
  if (med != res.med) {
    v.ok = false;
    v.reason = "MED from the LUT network " + json_num(med) +
               " differs from DaltaResult::med " + json_num(res.med);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Traced replay of run_dalta's loop (joint mode) from public functions.

struct Candidate {
  InputPartition partition;
  ColumnSetting setting;
  CoreSolveStats stats;
};

struct EvalScratch {
  std::optional<BooleanMatrix> matrix;
  std::vector<double> probs;
  std::vector<double> d;
};

struct Commit {
  std::size_t round;
  unsigned output;
  std::size_t candidate;
};

struct Replay {
  DaltaResult result;
  std::vector<Commit> commits;
  std::vector<ColumnCop> probes;  // candidate 0's COP of every output
};

Replay replay_dalta(const TruthTable& exact, const InputDistribution& dist,
                    const DaltaParams& params, const CoreCopSolver& solver,
                    const RunContext& ctx) {
  const unsigned n = exact.num_inputs();
  const unsigned m = exact.num_outputs();
  const std::uint64_t patterns = exact.num_patterns();
  const std::size_t P = params.num_partitions;
  if (params.mode != DecompMode::kJoint) {
    throw std::invalid_argument("replay_dalta: joint mode only");
  }

  Replay rep{DaltaResult{exact, {}, 0.0, 0.0, 0.0, 0, 0, 0}, {}, {}};
  DaltaResult& result = rep.result;
  std::vector<std::int64_t> exact_words(patterns);
  std::vector<std::int64_t> approx_words(patterns);
  std::vector<std::optional<OutputDecomposition>> chosen(m);
  std::vector<double> d_by_input(patterns);
  {
    Scoped span("phase.commit");
    for (std::uint64_t x = 0; x < patterns; ++x) {
      exact_words[x] = static_cast<std::int64_t>(exact.word(x));
      approx_words[x] = exact_words[x];
    }
  }

  for (std::size_t round = 0; round < params.rounds; ++round) {
    for (unsigned kk = 0; kk < m; ++kk) {
      const unsigned k = m - 1 - kk;
      {
        Scoped span("phase.commit");  // D refresh from the committed words
        const BitVec& gk = result.approx.output(k);
        const std::int64_t weight = std::int64_t{1} << k;
        for (std::uint64_t x = 0; x < patterns; ++x) {
          const std::int64_t rest = approx_words[x] - (gk.get(x) ? weight : 0);
          d_by_input[x] = static_cast<double>(rest - exact_words[x]);
        }
      }

      std::vector<InputPartition> candidates_w;
      std::vector<std::optional<Candidate>> candidates;
      {
        Scoped span("phase.sample_screen");
        Rng part_rng = ctx.stream("dalta/partitions", round, k);
        const std::size_t oversample =
            P * std::max<std::size_t>(1, params.screen_factor);
        candidates_w.reserve(oversample);
        for (std::size_t p = 0; p < oversample; ++p) {
          candidates_w.push_back(
              InputPartition::random(n, params.free_size, part_rng));
        }
        if (oversample > P) {
          Scoped screen("bdd.screen");
          screen.a = static_cast<double>(oversample);
          const PartitionScreener screener(exact.output(k), n);
          candidates_w = screener.screen(std::move(candidates_w), P);
        }
        // The first allocation after the screener's frees pays glibc's
        // consolidation of the BDD nodes (up to 0.15 s per output at
        // n = 16); making it here books that cost to the phase causing it.
        candidates.resize(P);
      }

      auto build_cop = [&](std::size_t p, EvalScratch& scratch) {
        Scoped span("core.cop_build");
        const InputPartition& w = candidates_w[p];
        const PartitionIndexer idx(w);
        if (!scratch.matrix) {
          scratch.matrix.emplace(w.num_rows(), w.num_cols());
        }
        BooleanMatrix& matrix = *scratch.matrix;
        BooleanMatrix::from_function_into(exact, k, w, idx, matrix);
        matrix_probs_into(dist, w, idx, scratch.probs);
        const std::size_t c = w.num_cols();
        scratch.d.resize(w.num_rows() * c);
        for (std::uint64_t x = 0; x < patterns; ++x) {
          scratch.d[idx.row_of(x) * c + idx.col_of(x)] = d_by_input[x];
        }
        return ColumnCop::joint(matrix, scratch.probs, scratch.d,
                                static_cast<double>(std::int64_t{1} << k));
      };

      std::optional<ColumnCop> probe;
      if (solver.batched() && P > 1) {
        std::vector<ColumnCop> cops;
        std::vector<std::uint64_t> seeds(P);
        {
          Scoped span("phase.cop_build");
          EvalScratch scratch;
          cops.reserve(P);
          for (std::size_t p = 0; p < P; ++p) {
            cops.push_back(build_cop(p, scratch));
            seeds[p] = ctx.stream_seed("dalta/candidate", round, k, p);
          }
        }
        std::vector<CoreSolveStats> stats;
        std::vector<ColumnSetting> settings;
        {
          Scoped fan("phase.fanout");
          const double cpu0 = process_cpu_s();
          {
            Scoped solve("core.solve_batch");
            settings = solver.solve_batch(cops, ctx, seeds, &stats);
            for (const CoreSolveStats& st : stats) {
              solve.a += static_cast<double>(st.iterations);
              solve.b += st.stopped_early ? 1.0 : 0.0;
            }
          }
          fan.a = process_cpu_s() - cpu0;
        }
        Scoped span("phase.commit");  // caller-side objective evaluation
        for (std::size_t p = 0; p < P; ++p) {
          Candidate cand{candidates_w[p], std::move(settings[p]), stats[p]};
          cand.stats.objective = cops[p].objective(cand.setting);
          candidates[p] = std::move(cand);
        }
        probe = std::move(cops.front());
      } else {
        auto evaluate = [&](std::size_t p) {
          thread_local EvalScratch scratch;
          ColumnCop cop = build_cop(p, scratch);
          Candidate cand{candidates_w[p], {}, {}};
          {
            Scoped solve("core.solve");
            cand.setting = solver.solve(
                cop, ctx, ctx.stream_seed("dalta/candidate", round, k, p),
                &cand.stats);
            solve.a = static_cast<double>(cand.stats.iterations);
            solve.b = cand.stats.stopped_early ? 1.0 : 0.0;
          }
          {
            Scoped objective("core.objective");
            cand.stats.objective = cop.objective(cand.setting);
          }
          if (p == 0) {
            probe = std::move(cop);
          }
          candidates[p] = std::move(cand);
        };
        Scoped fan("phase.fanout");
        const double cpu0 = process_cpu_s();
        if (ctx.parallel() && params.parallel && P > 1) {
          ctx.pool().parallel_for(P, evaluate);
        } else {
          for (std::size_t p = 0; p < P; ++p) {
            evaluate(p);
          }
        }
        fan.a = process_cpu_s() - cpu0;
      }

      Scoped commit("phase.commit");
      std::size_t best_p = P;
      for (std::size_t p = 0; p < P; ++p) {
        if (!candidates[p].has_value()) {
          continue;
        }
        if (best_p == P || candidates[p]->stats.objective <
                               candidates[best_p]->stats.objective - 1e-15) {
          best_p = p;
        }
      }
      if (best_p == P) {
        throw std::runtime_error("replay: no candidate partition was evaluated");
      }
      Candidate& best = *candidates[best_p];
      for (const auto& cand : candidates) {
        if (!cand.has_value()) {
          continue;
        }
        result.cop_solves += 1;
        result.solver_iterations += cand->stats.iterations;
        result.early_stops += cand->stats.stopped_early ? 1 : 0;
      }
      BitVec new_bits = compose_output(best.setting, best.partition);
      const BitVec& old_bits = result.approx.output(k);
      const std::int64_t weight = std::int64_t{1} << k;
      for (std::uint64_t x = 0; x < patterns; ++x) {
        const bool was = old_bits.get(x);
        const bool now = new_bits.get(x);
        if (was != now) {
          approx_words[x] += now ? weight : -weight;
        }
      }
      result.approx.set_output(k, std::move(new_bits));
      chosen[k] = OutputDecomposition{best.partition, std::move(best.setting),
                                      best.stats.objective};
      rep.commits.push_back(Commit{round, k, best_p});
      if (probe) {
        rep.probes.push_back(std::move(*probe));
      }
    }
  }

  Scoped verify_phase("phase.verify");
  result.outputs.reserve(m);
  for (unsigned k = 0; k < m; ++k) {
    result.outputs.push_back(std::move(*chosen[k]));
  }
  Scoped metrics("boolean.error_metrics");
  result.med = mean_error_distance(exact, result.approx, dist);
  result.error_rate = error_rate(exact, result.approx, dist);
  return rep;
}

bool same_setting(const ColumnSetting& a, const ColumnSetting& b) {
  return a.v1 == b.v1 && a.v2 == b.v2 && a.t == b.t;
}

/// First point where the replay departs from run_dalta, or an empty
/// string when they agree bit for bit.
std::string parity_gap(const DaltaResult& ref, const Replay& rep,
                       Record& rec) {
  const DaltaResult& got = rep.result;
  for (const Commit& c : rep.commits) {
    const OutputDecomposition& a = ref.outputs.at(c.output);
    const OutputDecomposition& b = got.outputs.at(c.output);
    std::string what;
    if (!(a.partition == b.partition)) {
      what = "partition";
    } else if (!same_setting(a.setting, b.setting)) {
      what = "setting";
    } else if (a.objective != b.objective) {
      what = "objective";
    } else if (ref.approx.output(c.output) != got.approx.output(c.output)) {
      what = "output bits";
    }
    if (!what.empty()) {
      rec.num("round", static_cast<double>(c.round))
          .num("output", c.output)
          .num("candidate", static_cast<double>(c.candidate));
      return what;
    }
  }
  if (ref.approx != got.approx) {
    return "approximate table";
  }
  if (ref.med != got.med) {
    return "med";
  }
  if (ref.cop_solves != got.cop_solves ||
      ref.solver_iterations != got.solver_iterations ||
      ref.early_stops != got.early_stops) {
    return "solve counters";
  }
  return "";
}

// ---------------------------------------------------------------------------

struct Problem {
  std::size_t fn;    // index into Workload::functions
  std::size_t slot;  // input labeling
};

/// Pass order: every function at slot 0, then at slot 1, ...
std::vector<Problem> pass_problems(const Workload& w) {
  std::vector<Problem> out;
  for (std::size_t j = 0; j < w.slots_per_pass; ++j) {
    for (std::size_t f = 0; f < w.functions.size(); ++f) {
      out.push_back(Problem{f, j});
    }
  }
  return out;
}

class Runner {
 public:
  /// `tables[f][j]` is function f under slot j's input labeling.
  Runner(const Workload& w, const Setup& s,
         std::vector<std::vector<TruthTable>> tables)
      : w_(w), s_(s), tables_(std::move(tables)) {}

  /// One verified untraced decomposition; emits begin + result records.
  /// `timed` marks it as part of the measured phase.
  std::optional<DaltaResult> decompose(const Problem& pb, bool keep,
                                       bool timed = false) {
    const std::string& fn = w_.functions[pb.fn];
    Record("begin").str("fn", fn).num("slot", static_cast<double>(pb.slot)).emit();
    Record rec("decomposition");
    rec.str("fn", fn)
        .num("slot", static_cast<double>(pb.slot))
        .flag("traced", false)
        .flag("timed", timed);
    const TruthTable& exact = tables_[pb.fn][pb.slot];
    std::optional<DaltaResult> kept;
    try {
      const double t0 = now_s();
      DaltaResult res =
          run_dalta(exact, *s_.dist, s_.params, *s_.solver, *s_.ctx);
      Verdict v = verify(exact, *s_.dist, res);
      const double dt = now_s() - t0;
      check_repeat(pb, v);
      rec.num("seconds", dt)
          .num("cop_solves", static_cast<double>(res.cop_solves))
          .num("med", v.med)
          .flag("ok", v.ok);
      if (!v.ok) {
        rec.str("reason", v.reason);
      }
      if (keep) {
        kept = std::move(res);
      }
    } catch (const std::exception& e) {
      rec.flag("ok", false).str("reason", std::string("threw: ") + e.what());
    }
    rec.emit();
    return kept;
  }

  /// The traced replay of one problem, verified like an untraced run.
  void replay(const Problem& pb, const DaltaResult& ref, std::uint32_t id) {
    const std::string& fn = w_.functions[pb.fn];
    Record("begin").str("fn", fn).num("slot", static_cast<double>(pb.slot)).emit();
    Record rec("decomposition");
    rec.str("fn", fn).num("slot", static_cast<double>(pb.slot)).flag("traced", true);
    Record parity("parity");
    parity.str("fn", fn).num("slot", static_cast<double>(pb.slot));
    std::vector<double> probe_us;
    try {
      SpanLog::global().set_decomposition(id);
      SpanLog::global().set_on(true);
      const TruthTable& exact = tables_[pb.fn][pb.slot];
      std::optional<Replay> rep;
      Verdict v;
      const double t0 = now_s();
      {
        Scoped span("core.decompose");
        rep = replay_dalta(exact, *s_.dist, s_.params, *s_.solver, *s_.ctx);
        Scoped verify_phase("phase.verify");
        v = verify(exact, *s_.dist, rep->result);
      }
      const double dt = now_s() - t0;
      SpanLog::global().set_on(false);
      check_repeat(pb, v);
      rec.num("seconds", dt)
          .num("cop_solves", static_cast<double>(rep->result.cop_solves))
          .num("med", v.med)
          .flag("ok", v.ok);
      if (!v.ok) {
        rec.str("reason", v.reason);
      }
      const std::string gap = parity_gap(ref, *rep, parity);
      parity.flag("ok", gap.empty());
      if (!gap.empty()) {
        parity.str("differs", gap);
      }
      // COP -> Ising conversion, probed beside the ledger: each sampled
      // COP once, outside every phase span.
      for (const ColumnCop& cop : rep->probes) {
        const double t0 = now_s();
        const IsingModel model = cop.to_ising();
        probe_us.push_back((now_s() - t0) * 1e6);
        if (model.num_spins() != cop.num_spins()) {
          throw std::logic_error("to_ising: spin count mismatch");
        }
      }
    } catch (const std::exception& e) {
      SpanLog::global().set_on(false);
      rec.flag("ok", false).str("reason", std::string("threw: ") + e.what());
      parity.flag("ok", false).str("differs", "replay did not complete");
    }
    rec.emit();
    parity.emit();
    Record("to_ising").nums("us", probe_us).emit();
  }

 private:
  /// A problem's MED must repeat exactly across the run.
  void check_repeat(const Problem& pb, Verdict& v) {
    const auto key = std::make_pair(pb.fn, pb.slot);
    const auto it = first_med_.find(key);
    if (it == first_med_.end()) {
      first_med_.emplace(key, v.med);
    } else if (v.ok && it->second != v.med) {
      v.ok = false;
      v.reason = "MED " + json_num(v.med) +
                 " differs from this problem's first MED " +
                 json_num(it->second);
    }
  }

  const Workload& w_;
  const Setup& s_;
  std::vector<std::vector<TruthTable>> tables_;
  std::map<std::pair<std::size_t, std::size_t>, double> first_med_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

constexpr int kSetupRepeats = 101;

int cmd_run(const Workload& w, std::uint64_t seed, double seconds, bool trace,
            const std::string& spans_path) {
  const Host host = detect_host();
  const CpuFeatures& features = cpu_features();
  Record("host")
      .num("nproc", host.nproc)
      .num("threads", static_cast<double>(host.threads))
      .num("pool_workers", static_cast<double>(host.workers))
      .str("kernel_auto",
           kernels::select_force_kernel(kernels::ForceKernel::kAuto, features,
                                        false)
               .name)
      .str("pack_kernel_auto",
           kernels::select_pack_force_kernel(kernels::ForceKernel::kAuto,
                                             features)
               .name)
      .emit();

  std::vector<double> probe_ms{host_probe_ms()};

  // Set-up is repeated and its median reported; the last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    SpanLog::global().set_decomposition(static_cast<std::uint32_t>(r));
    SpanLog::global().set_on(trace);
    setup.reset();
    const double t0 = now_s();
    setup = make_setup(w, host, seed);
    setup_s.push_back(now_s() - t0);
    SpanLog::global().set_on(false);
  }
  Record("setup").nums("seconds", setup_s).emit();

  // Input generation, outside the timed set-up: every slot's labeling of
  // every function.
  std::vector<std::vector<TruthTable>> tables;
  for (const TruthTable& base : setup->tables) {
    tables.emplace_back();
    for (std::size_t j = 0; j < w.slots_per_pass; ++j) {
      tables.back().push_back(
          relabel_inputs(base, slot_labeling(w.n, seed, j)));
    }
  }
  Runner runner(w, *setup, std::move(tables));
  const std::vector<Problem> pass = pass_problems(w);
  if (!trace) {
    // Closed loop. The pass's first problem is the warm-up: verified and
    // counted, but not timed, so the first jobs' page faults and cold
    // caches stay out of the measured phase. That phase runs the rest of
    // the pass, then keeps cycling through it while the next decomposition
    // is expected to end within `seconds`. The host probe runs before
    // every timed decomposition; its time is not part of the phase.
    runner.decompose(pass[0], false);
    std::vector<double> times;
    double probe_s = 0.0;
    const double t0 = now_s();
    for (std::size_t i = 1;; ++i) {
      if (i >= pass.size() &&
          now_s() - t0 - probe_s + median(times) > seconds) {
        break;
      }
      const double p0 = now_s();
      probe_ms.push_back(host_probe_ms());
      const double d0 = now_s();
      probe_s += d0 - p0;
      runner.decompose(pass[i % pass.size()], false, true);
      times.push_back(now_s() - d0);
    }
    Record("measured").num("seconds", now_s() - t0 - probe_s).emit();
    probe_ms.push_back(host_probe_ms());
    Record("probe").nums("ms", probe_ms).emit();
  } else {
    // Traced run: slot 0's problems run untraced three times
    // (the first is the parity reference), then once as a traced replay.
    constexpr int kUntracedRepeats = 3;
    std::vector<Problem> traced(pass.begin(),
                                pass.begin() + static_cast<std::ptrdiff_t>(
                                                   w.functions.size()));
    std::vector<std::optional<DaltaResult>> refs(traced.size());
    for (int r = 0; r < kUntracedRepeats; ++r) {
      for (std::size_t i = 0; i < traced.size(); ++i) {
        auto res = runner.decompose(traced[i], r == 0);
        if (r == 0) {
          refs[i] = std::move(res);
        }
      }
    }
    for (std::size_t i = 0; i < traced.size(); ++i) {
      if (!refs[i]) {
        Record("parity").str("fn", w.functions[traced[i].fn])
            .flag("ok", false).str("differs", "no run_dalta reference").emit();
        continue;
      }
      runner.replay(traced[i], *refs[i],
                    static_cast<std::uint32_t>(kSetupRepeats + i));
    }
    SpanLog::global().write(spans_path);
    Record("spans").str("path", spans_path).emit();
  }
  Record("rss").num("peak_mb", peak_rss_mb()).emit();
  return 0;
}

// Packed-equals-looped self-test at a reduced size (n = 10, |A| = 5,
// P = 8): the bsb-n12 and pack-n12 solvers must produce bit-identical
// decompositions on one seed, and every decomposition on a second seed
// must verify.
int cmd_selftest(std::uint64_t seed, std::uint64_t seed2) {
  const Workload& bsb = find_workload("bsb-n12");
  const Workload& pack = find_workload("pack-n12");
  constexpr unsigned kN = 10;
  const Host host = detect_host();
  DaltaParams params;
  params.free_size = 5;
  params.num_partitions = 8;
  params.rounds = 1;
  const InputDistribution dist = InputDistribution::uniform(kN);
  const auto looped = make_solver(bsb.spec, kN);
  const auto packed = make_solver(pack.spec, kN);
  bool ok = true;
  for (const std::uint64_t s : {seed, seed2}) {
    RunContext::Options opts;
    opts.seed = s;
    opts.threads = std::max<std::size_t>(1, host.workers);
    opts.parallel = host.workers > 0;
    const RunContext ctx(opts);
    for (const std::string& fn : bsb.functions) {
      const TruthTable exact =
          make_benchmark_table(fn, kN, paper_output_bits(fn, kN));
      const DaltaResult a = run_dalta(exact, dist, params, *looped, ctx);
      const DaltaResult b = run_dalta(exact, dist, params, *packed, ctx);
      const Verdict va = verify(exact, dist, a);
      const Verdict vb = verify(exact, dist, b);
      const bool same = a.med == b.med && a.approx == b.approx;
      const bool pass = va.ok && vb.ok && (s != seed || same);
      Record("selftest")
          .num("seed", static_cast<double>(s))
          .str("fn", fn)
          .num("med_looped", a.med)
          .num("med_packed", b.med)
          .flag("identical", same)
          .flag("verified", va.ok && vb.ok)
          .flag("ok", pass)
          .emit();
      ok = ok && pass;
    }
  }
  return ok ? 0 : 1;
}

std::string arg_value(int argc, char** argv, const char* key,
                      const char* fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) {
      return argv[i + 1];
    }
  }
  if (fallback == nullptr) {
    throw std::invalid_argument(std::string("missing ") + key);
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold whenever a large block is freed, after
  // which freed multi-MB blocks (the pack engine's planes, the screener's
  // BDD tables) stay in the heap; where they land depends on thread
  // timing, so peak RSS of one problem set jumped in 2 MB steps between 17
  // and 25 MB run to run. A fixed 1 MiB threshold keeps those blocks
  // mmapped and the peak repeatable; decomposition times did not move.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "run") {
      const Workload& w = find_workload(arg_value(argc, argv, "--workload", nullptr));
      const std::uint64_t seed = std::stoull(arg_value(argc, argv, "--seed", nullptr));
      const double seconds = std::stod(arg_value(argc, argv, "--seconds", nullptr));
      const bool trace = arg_value(argc, argv, "--trace", "0") == "1";
      return cmd_run(w, seed, seconds, trace,
                     arg_value(argc, argv, "--spans", "spans.jsonl"));
    }
    if (cmd == "selftest") {
      return cmd_selftest(std::stoull(arg_value(argc, argv, "--seed", nullptr)),
                          std::stoull(arg_value(argc, argv, "--seed2", nullptr)));
    }
    std::fprintf(stderr,
                 "usage: dalta_bench run --workload W --seed N --seconds S "
                 "[--trace 0|1] [--spans FILE]\n"
                 "       dalta_bench selftest --seed N --seed2 N\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dalta_bench: %s\n", e.what());
    return 1;
  }
}
