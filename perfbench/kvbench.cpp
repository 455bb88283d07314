// kvbench: the KvService benchmark.
//
// One load-generator thread drives a KvService (Figure 4 CAS-backed LL/SC
// substrate + EpochReclaimer, fixed worker pool) through one of three
// workloads and checks every response it gets back:
//
//   kv_read        plain mode, closed loop, 90% verified find / 10% upsert,
//                  zipfian over 2^18 preloaded keys;
//   kv_churn_feed  feed mode, open loop (Poisson), 40/40/10/10
//                  find/upsert/insert/erase over 4K hot keys, plus kPoll
//                  of 4 shard subscriptions every 8th arrival;
//   txn_bank       txn mode on the default engine, closed loop, 80%
//                  4-account kMultiGet / 20% 2-account kMultiCas transfer,
//                  zipfian over 2^14 groups.
//
// Usage (perfbench/run.py builds this and forwards its arguments):
//   kvbench --workload kv_read --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics. The open loop runs against
// the service's own router and worker threads; the closed loops run it
// embedded (workers = 0): the generator routes and executes what it
// submitted, moving from CPU to CPU (see CpuRotor). --trace 1 runs the
// workload twice, untraced (threaded) and traced, and reports the
// per-layer metrics: in the traced half the service runs with workers = 0
// and benchmark threads
// mirror router_main/worker_main (pump_router / pump with observers), so
// every span is taken from this file around calls into the library. After
// the traced run, single-thread "ladder" timings call map, substrate, txn
// and feed entry points directly on the quiescent service.
//
// Output: human-readable lines, a "# meta" line with host noise (involuntary
// context switches, thread count), and as the LAST line one JSON object
// {"correct", "attempted", "failed", "metrics"}. An integrity violation
// prints correct=false and exits 3; --plant 1 or 2 injects one violation
// into the workload's first or second checker to prove that path.
#include <dirent.h>
#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/syscall.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/llsc_traits.hpp"
#include "latency.hpp"
#include "reclaim/epoch.hpp"
#include "stats/stats.hpp"
#include "svc/service.hpp"
#include "txn/txn_kv.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace {

using moir::Xoshiro256;
using moir::svc::Op;
using moir::svc::Response;
using moir::svc::Status;
using perfbench::LatencyRecorder;

using Sub = moir::CasBackedLlsc<16>;
using Reclaim = moir::reclaim::EpochReclaimer;
// RingCap = 8192 so a session ring never fills before its ticket window
// does; FeedRingCap = 4096 so shard subscribers polled every few requests
// are never lapped (an overrun would lose records by design).
using Svc = moir::svc::KvService<Sub, Reclaim, 8192, 4096>;
using Ticket = Svc::Ticket;
using Client = Svc::ClientCtx;

constexpr unsigned kSetupRepeats = 5;   // at least; setup_s is their median
constexpr double kWarmupS = 1.0;
constexpr double kWindowNs = 5e6;     // measurement sub-window
constexpr double kCleanShare = 0.99;  // CPU / wall each thread needs in a clean one
constexpr double kSetupBudgetS = 1.0;  // set-up repeats until this much
constexpr unsigned kSpanSample = 64;    // spans for 1 in 64 tickets/passes
constexpr std::size_t kSpanCap = 50000; // per thread
constexpr unsigned kLadderOps = 100000;
constexpr unsigned kLadderReps = 5;
constexpr std::uint64_t kStuckNs = 10'000'000'000;  // open loop: no ticket frees
constexpr std::uint64_t kRotateNs = 50'000'000;     // embedded: CPU dwell time

std::uint64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "kvbench: %s\n", what);
  std::fflush(stderr);
  std::_Exit(2);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

long involuntary_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

long thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atol(line.c_str() + 8);
  }
  return -1;
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Host CPU time stolen from this VM so far (the "steal" column of
// /proc/stat, in clock ticks summed over CPUs); 0 where unavailable.
class StealClock {
 public:
  StealClock() : fd_(open("/proc/stat", O_RDONLY | O_CLOEXEC)) {}
  ~StealClock() {
    if (fd_ >= 0) close(fd_);
  }
  StealClock(const StealClock&) = delete;
  StealClock& operator=(const StealClock&) = delete;

  long ticks() const {
    char buf[256];
    if (fd_ < 0) return 0;
    const ssize_t n = pread(fd_, buf, sizeof(buf) - 1, 0);
    if (n <= 0) return 0;
    buf[n] = '\0';
    long v[8] = {};
    if (std::sscanf(buf, "cpu %ld %ld %ld %ld %ld %ld %ld %ld", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
      return 0;
    }
    return v[7];
  }

 private:
  int fd_;
};

// CPU time of every thread of this process, read through the per-thread
// CPU clocks. With paravirtual steal accounting the kernel leaves time the
// hypervisor took from a vCPU out of the thread running on it, so over an
// interval a thread's CPU time falls short of the wall time exactly when
// it was stolen, preempted or shared its CPU with another thread.
class ThreadClocks {
 public:
  // Every thread alive now: call it once the service's threads run.
  void attach() {
    clocks_.clear();
    if (DIR* d = opendir("/proc/self/task")) {
      while (const dirent* e = readdir(d)) {
        const pid_t tid = std::atoi(e->d_name);
        if (tid > 0) clocks_.push_back(cpu_clock(tid));
      }
      closedir(d);
    }
  }

  void read(std::vector<std::uint64_t>& ns) const {
    ns.resize(clocks_.size());
    for (std::size_t i = 0; i < clocks_.size(); ++i) ns[i] = clock_ns(clocks_[i]);
  }

 private:
  // The kernel's id for thread `tid`'s scheduler CPU clock (CPUCLOCK_SCHED
  // with the per-thread bit), as glibc's pthread_getcpuclockid builds it.
  static clockid_t cpu_clock(pid_t tid) {
    return static_cast<clockid_t>(~static_cast<unsigned>(tid) << 3 | 6u);
  }

  std::vector<clockid_t> clocks_;
};

// Pins every thread of this process to a CPU of its own, taking CPUs from
// the top of the allowed set so the lowest one stays free for the rest of
// the system. Returns the calling thread's previous mask for unpin().
cpu_set_t pin_threads() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  const auto self = static_cast<pid_t>(syscall(SYS_gettid));
  std::vector<pid_t> tids{self};
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d)) {
      const pid_t tid = std::atoi(e->d_name);
      if (tid > 0 && tid != self) tids.push_back(tid);
    }
    closedir(d);
  }
  for (std::size_t i = 0; i < tids.size() && !cpus.empty(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i % cpus.size()], &one);
    sched_setaffinity(tids[i], sizeof(one), &one);
  }
  return allowed;
}

void unpin(const cpu_set_t& allowed) {
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

// Moves the calling thread to the next allowed CPU every kRotateNs. On a
// shared VM host a vCPU's speed drifted by a third for seconds at a time
// with other tenants' load, so a thread left where the scheduler put it
// measured that vCPU's luck; rotating averages over all of them.
class CpuRotor {
 public:
  CpuRotor() {
    CPU_ZERO(&allowed_);
    sched_getaffinity(0, sizeof(allowed_), &allowed_);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotor() { unpin(allowed_); }
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  void tick(std::uint64_t now) {
    if (now < next_) return;
    advance();
    next_ = now + kRotateNs;
  }

  void advance() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t i_ = 0;
  std::uint64_t next_ = 0;
};

// ----- Measurement --------------------------------------------------------
//
// The measured window follows a warm-up and is split into 5 ms
// sub-windows; throughput and latency percentiles are the median over the
// "clean" sub-windows. On a shared VM the hypervisor takes vCPUs away for
// milliseconds at a time (steal), and over whole runs it took from none to
// three quarters of the time: a sub-window in which any pipeline thread
// did not run measures the host, not the service. The generator reads
// every thread's CPU clock at each sub-window boundary, and a sub-window is
// clean when each thread ran for at least kCleanShare of it.
// attempted/failed count the window only; the workload counters after
// `completed` cover the whole run, warm-up and drain included.
struct Measure {
  void start(double seconds, int plant_violation) {
    cur = 0;
    cur_lat = LatencyRecorder{};
    w_p50.assign(nwin_for(seconds), -1);
    w_p95 = w_p50;
    w_p99 = w_p50;
    plant = plant_violation;
    nwin = nwin_for(seconds);
    window_ns = static_cast<std::uint64_t>(seconds * 1e9 / nwin);
    clocks.attach();
    share.assign(nwin, 0.0);
    last_b = SIZE_MAX;
    t_begin = now_ns();
    t_start = t_begin + static_cast<std::uint64_t>(kWarmupS * 1e9);
    t_end = t_start + nwin * window_ns;
    done.assign(nwin, 0);
    next_tick = t_start;
    nivcsw = involuntary_switches();
    steal = steal_clock.ticks();
    threads = thread_count();
  }

  void finish() {
    close_window();
    nivcsw = involuntary_switches() - nivcsw;
    steal = steal_clock.ticks() - steal;
  }

  static unsigned nwin_for(double seconds) {
    return std::max(10u, static_cast<unsigned>(std::lround(seconds * 1e9 / kWindowNs)));
  }

  bool in_window(std::uint64_t t) const { return t >= t_start && t < t_end; }

  // Called often by the generator: at each sub-window boundary, reads the
  // thread clocks and records the sub-window just ended's smallest
  // CPU / wall share. A sub-window whose boundary was missed keeps share 0.
  void tick(std::uint64_t now) {
    if (now < next_tick || next_tick == 0) return;
    const std::size_t b = std::min<std::size_t>((now - t_start) / window_ns, nwin);
    clocks.read(cpu_now);
    if (b > 0 && last_b == b - 1) {
      double s = 1.0;
      for (std::size_t i = 0; i < cpu_now.size(); ++i) {
        s = std::min(s, static_cast<double>(cpu_now[i] - cpu_last[i]) /
                            static_cast<double>(now - wall_last));
      }
      share[b - 1] = s;
    }
    std::swap(cpu_now, cpu_last);
    wall_last = now;
    last_b = b;
    next_tick = b < nwin ? t_start + (b + 1) * window_ns : 0;
  }

  // Least share of a sub-window and the one before it: a thread that was
  // just stolen comes back to caches the host's other work has cooled.
  double guarded_share(std::size_t w) const {
    return w == 0 ? 0.0 : std::min(share[w - 1], share[w]);
  }

  // Sub-windows in which, and in the one before which, every thread ran
  // for at least kCleanShare of the time. Under heavy host load fewer
  // than a twentieth may qualify; then the twentieth that ran the most.
  std::vector<std::size_t> clean_windows() const {
    std::vector<std::size_t> keep;
    for (std::size_t w = 0; w < nwin; ++w) {
      if (guarded_share(w) >= kCleanShare) keep.push_back(w);
    }
    if (keep.size() >= nwin / 20) return keep;
    keep.resize(nwin);
    std::iota(keep.begin(), keep.end(), std::size_t{0});
    std::stable_sort(keep.begin(), keep.end(), [&](std::size_t a, std::size_t b) {
      return guarded_share(a) > guarded_share(b);
    });
    keep.resize(nwin / 20);
    return keep;
  }

  std::size_t windows_at_share(double s) const {
    std::size_t n = 0;
    for (std::size_t w = 0; w < nwin; ++w) n += guarded_share(w) >= s;
    return n;
  }

  // A response seen at `now` for a request whose latency runs from
  // `origin` (submit for closed loop, scheduled arrival for open loop).
  void complete(std::uint64_t origin, std::uint64_t now) {
    ++completed;
    if (!in_window(now)) return;
    const std::size_t w = (now - t_start) / window_ns;
    ++done[w];
    // Responses are seen in time order by the one generator thread, so
    // one recorder serves the current sub-window and is summarized when
    // the next one starts.
    if (w != cur) {
      close_window();
      cur = w;
    }
    cur_lat.record(now > origin ? now - origin : 0);
  }

  void close_window() {
    if (cur_lat.count() == 0) return;
    w_p50[cur] = cur_lat.quantile(0.50);
    w_p95[cur] = cur_lat.quantile(0.95);
    w_p99[cur] = cur_lat.quantile(0.99);
    cur_lat = LatencyRecorder{};
  }

  void violate(const char* what) {
    if (violations++ == 0) first_violation = what;
  }

  // True exactly once: at the first check of checker `site` inside the
  // window when --plant selected that checker.
  bool plant_now(std::uint64_t t, int site) {
    if (plant != site || planted || !in_window(t)) return false;
    planted = true;
    return true;
  }

  double throughput() const {
    std::vector<double> v;
    for (const auto w : clean_windows()) {
      v.push_back(static_cast<double>(done[w]) * 1e9 / window_ns);
    }
    return median(v);
  }

  // Median over clean sub-windows of their p50 / p95 / p99.
  double latency_us(const std::vector<double>& per_window) const {
    std::vector<double> v;
    for (const auto w : clean_windows()) {
      if (per_window[w] >= 0) v.push_back(per_window[w] / 1e3);
    }
    return median(v);
  }

  std::uint64_t samples() const {
    std::uint64_t n = 0;
    for (const auto d : done) n += d;
    return n;
  }

  std::uint64_t t_begin = 0, t_start = 0, t_end = 0, window_ns = 1;
  unsigned nwin = 0;
  std::vector<std::uint64_t> done;          // responses per sub-window
  std::vector<double> w_p50, w_p95, w_p99;  // ns per sub-window, -1 empty
  std::size_t cur = 0;                      // sub-window cur_lat covers
  LatencyRecorder cur_lat;
  ThreadClocks clocks;
  std::vector<double> share;  // per sub-window: least CPU / wall of a thread
  std::vector<std::uint64_t> cpu_now, cpu_last;
  std::uint64_t wall_last = 0;
  std::size_t last_b = SIZE_MAX;  // boundary last sampled
  std::uint64_t next_tick = 0;
  StealClock steal_clock;
  long steal = 0;  // host steal ticks over the run (all CPUs), for the meta line
  LatencyRecorder lag;       // generator submit - when the request was due
  LatencyRecorder kpoll_rt;  // kPoll submit -> completion seen
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t completed = 0;
  std::uint64_t multi_gets = 0, multi_cas = 0, cas_misses = 0;
  std::uint64_t kpolls = 0, delivered = 0, committed = 0, overruns = 0;
  std::uint64_t violations = 0;
  std::string first_violation;
  int plant = 0;  // checker to plant a violation in (0 = none)
  bool planted = false;
  long nivcsw = 0, threads = 0;
};

// ----- Tracing --------------------------------------------------------------
//
// Spans are kept in memory per thread and written out after the run.
// Request spans carry the ticket id (session, slot, gen); pass spans carry
// the pumping thread and pass number. Only 1 in kSpanSample tickets and
// passes is kept, but the aggregates below count every event in window.
struct Span {
  const char* name;
  std::uint64_t start, end;
  std::uint64_t a, b, c;  // request: session, slot, gen; pass: -, pass, items
};

struct SpanLog {
  std::vector<Span> spans;
  void add(const Span& s) {
    if (spans.size() < kSpanCap) spans.push_back(s);
  }
};

struct Pumper {
  std::uint64_t passes = 0, empty = 0, items = 0, busy_ns = 0, exec_ns = 0;
  SpanLog log;
};

class Trace {
 public:
  Trace(const Svc::Config& cfg, unsigned executors)
      : execs(executors),
        per_session_(cfg.tickets_per_session),
        done_ts_(std::size_t{cfg.max_sessions} * cfg.tickets_per_session, 0),
        exec_ts_(done_ts_.size(), 0) {}

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  void set_window(std::uint64_t start, std::uint64_t end) {
    win_start_.store(start, std::memory_order_relaxed);
    win_end_.store(end, std::memory_order_relaxed);
  }
  bool in_window(std::uint64_t t) const {
    return t >= win_start_.load(std::memory_order_relaxed) &&
           t < win_end_.load(std::memory_order_relaxed);
  }
  static bool sampled(std::uint64_t n) { return n % kSpanSample == 0; }

  // Executor/router side, from inside a pump observer: that runs before
  // the done publication, so the client reads these after its acquire.
  void on_done(std::uint64_t handle, std::uint64_t exec, std::uint64_t t) {
    const std::size_t i = index(moir::svc::handle_session(handle),
                                moir::svc::handle_slot(handle));
    exec_ts_[i] = exec;
    done_ts_[i] = t;
  }

  // Generator side.
  void on_submit(std::uint64_t t0, std::uint64_t t1, unsigned sid,
                 const Ticket& tk) {
    if (!in_window(t0)) return;
    submit_ns += t1 - t0;
    ++submits;
    if (sampled(tk.gen)) gen_log.add({"submit", t0, t1, sid, tk.slot, tk.gen});
  }
  void on_poll(std::uint64_t ta, std::uint64_t tb) {
    if (!in_window(ta)) return;
    poll_ns += tb - ta;
    ++polls;
  }
  void on_complete(unsigned sid, const Ticket& tk, std::uint64_t submitted,
                   std::uint64_t ta, std::uint64_t seen) {
    if (!in_window(seen)) return;
    const std::size_t i = index(sid, tk.slot);
    const std::uint64_t done = done_ts_[i], exec = exec_ts_[i];
    const std::uint64_t waited = done > submitted ? done - submitted : 0;
    queue_wait.record(waited > exec ? waited - exec : 0);
    notify.record(seen > done ? seen - done : 0);
    if (sampled(tk.gen)) {
      gen_log.add({"request", submitted, seen, sid, tk.slot, tk.gen});
      gen_log.add({"poll", ta, seen, sid, tk.slot, tk.gen});
    }
  }

  std::atomic<bool> stop_router{false};
  std::atomic<bool> stop_workers{false};

  std::vector<Pumper> execs;
  Pumper router;
  std::uint64_t submit_ns = 0, submits = 0, poll_ns = 0, polls = 0;
  LatencyRecorder queue_wait, notify;
  SpanLog gen_log;

 private:
  std::size_t index(std::uint32_t sid, std::uint32_t slot) const {
    return std::size_t{sid} * per_session_ + slot;
  }

  const std::size_t per_session_;
  std::vector<std::uint64_t> done_ts_;  // executor-done time per ticket slot
  std::vector<std::uint64_t> exec_ts_;  // its execution time
  std::atomic<std::uint64_t> win_start_{0}, win_end_{0};
};

// Mirrors KvService::worker_main: pump until stopped and drained.
void exec_main(Svc& svc, Trace& tr, unsigned id) {
  auto w = svc.make_worker_ctx();
  Pumper& p = tr.execs[id];
  moir::SpinWait sw;
  for (;;) {
    const std::uint64_t t0 = now_ns();
    std::uint64_t prev = t0, exec_sum = 0;
    const unsigned k = svc.pump(w, [&](std::uint64_t h, const Response&) {
      const std::uint64_t t = now_ns();
      tr.on_done(h, t - prev, t);
      exec_sum += t - prev;
      const std::uint64_t gen = svc.peek_slot(h).gen;
      if (Trace::sampled(gen) && tr.in_window(t)) {
        p.log.add({"exec", prev, t, moir::svc::handle_session(h),
                   moir::svc::handle_slot(h), gen});
      }
      prev = t;
    });
    const std::uint64_t t1 = now_ns();
    if (tr.in_window(t0)) {
      ++p.passes;
      if (k == 0) {
        ++p.empty;
      } else {
        p.items += k;
        p.busy_ns += t1 - t0;
        p.exec_ns += exec_sum;
        if (Trace::sampled(p.passes)) {
          p.log.add({"pump_pass", t0, t1, id, p.passes, k});
        }
      }
    }
    if (k > 0) {
      sw.reset();
      continue;
    }
    if (tr.stop_workers.load(std::memory_order_acquire) &&
        svc.queues_empty()) {
      break;
    }
    sw.pause();
  }
}

// Mirrors KvService::router_main. A router-side completion is a shed
// (queue full): it never executed.
void router_main(Svc& svc, Trace& tr) {
  auto rc = svc.make_router_ctx();
  Pumper& p = tr.router;
  moir::SpinWait sw;
  for (;;) {
    const std::uint64_t t0 = now_ns();
    const unsigned moved =
        svc.pump_router(rc, [&](std::uint64_t h, const Response&) {
          tr.on_done(h, 0, now_ns());
        });
    const std::uint64_t t1 = now_ns();
    if (tr.in_window(t0)) {
      ++p.passes;
      if (moved == 0) {
        ++p.empty;
      } else {
        p.items += moved;
        p.busy_ns += t1 - t0;
        if (Trace::sampled(p.passes)) {
          p.log.add({"route_pass", t0, t1, 0, p.passes, moved});
        }
      }
    }
    if (moved > 0) {
      sw.reset();
      continue;
    }
    if (tr.stop_router.load(std::memory_order_acquire)) break;
    sw.pause();
  }
}

// ----- Workload shapes ----------------------------------------------------
//
// A closed-loop shape supplies config(), preload(), next() to draw a
// request, submit()/poll() to move it through the service, check() to
// verify a response, verify_end() for end-of-run invariants, and the key
// distribution the ladder reuses.

// kv_read: every key is preloaded and never erased, so every find must hit
// and carry the checksum of its own key in the low 32 bits.
struct KvRead {
  static constexpr const char* kName = "kv_read";
  static constexpr std::uint64_t kKeys = std::uint64_t{1} << 18;
  static constexpr unsigned kShards = 16;
  static constexpr unsigned kSessions = 2;
  static constexpr unsigned kWindow = 32;  // in-flight tickets per session
  static constexpr unsigned kWorkers = 1;
  static constexpr bool kTxn = false, kFeed = false;

  struct Req {
    Op op = Op::kFind;
    std::uint64_t key = 0, value = 0;
  };

  explicit KvRead(std::uint64_t seed) : rng(seed), zipf(kKeys) {}

  static std::uint64_t check_of(std::uint64_t key) {
    return moir::hash_mix64(key ^ 0x5bd1e995u) & 0xffffffffu;
  }
  static std::uint64_t value_of(std::uint64_t key, std::uint64_t nonce) {
    return nonce << 32 | check_of(key);
  }

  static Svc::Config config() {
    Svc::Config c;
    c.queues = 4;
    c.queue_capacity = 32768;
    c.batch = 16;
    c.max_sessions = 6;
    c.tickets_per_session = kWindow;
    // 2^18 nodes of 24 bytes (6 MiB) overflow a core's 2 MiB L2; 4096
    // buckets per shard keep chains ~4 nodes long. The slack holds the
    // ladder's fresh inserts.
    c.map = {.shards = kShards,
             .buckets_per_shard = kKeys / kShards / 4,
             .capacity_per_shard = kKeys / kShards + 4096};
    return c;
  }

  static void preload(Svc& svc) {
    auto ctx = svc.make_map_ctx();
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      if (!svc.map().insert(ctx, k, value_of(k, 0))) die("kv_read preload failed");
    }
  }

  void next(Req& r) {
    r.key = zipf.next_scrambled(rng);
    if (rng.next_below(10) == 0) {
      r.op = Op::kUpsert;
      r.value = value_of(r.key, ++nonce);
    } else {
      r.op = Op::kFind;
      r.value = 0;
    }
  }

  static std::optional<Ticket> submit(Svc& svc, Client& c, Req& r) {
    return svc.submit(c, r.op, r.key, r.value);
  }
  static std::optional<Response> poll(Svc& svc, Client& c, const Ticket& t,
                                      Req&) {
    return svc.poll(c, t);
  }

  void check(Req& r, Response resp, Measure& m, std::uint64_t t) {
    if (r.op != Op::kFind) return;
    if (m.plant_now(t, 1)) resp.value ^= 1;
    if (m.plant_now(t, 2)) resp.status = Status::kNotFound;
    if (resp.status != Status::kOk) {
      m.violate("kv_read: find missed a preloaded key");
    } else if ((resp.value & 0xffffffffu) != check_of(r.key)) {
      m.violate("kv_read: find returned a value with another key's checksum");
    }
  }

  static void verify_end(Svc&, Measure&) {}

  std::uint64_t ladder_key(Xoshiro256& g) const { return zipf.next_scrambled(g); }
  static std::uint64_t ladder_value(std::uint64_t key) { return value_of(key, 0); }

  Xoshiro256 rng;
  moir::ZipfianGenerator zipf;
  std::uint64_t nonce = 0;
};

// txn_bank: groups of 4 accounts opened at kOpening each; transfers move
// money only within a group, so every consistent snapshot of a group sums
// to 4 * kOpening and the grand total is conserved.
struct TxnBank {
  static constexpr const char* kName = "txn_bank";
  static constexpr std::uint64_t kGroups = std::uint64_t{1} << 14;
  static constexpr unsigned kAccounts = 4;
  static constexpr std::uint64_t kOpening = 1000;
  static constexpr std::uint64_t kGroupSum = kAccounts * kOpening;
  static constexpr unsigned kShards = 8;
  static constexpr unsigned kSessions = 2;
  static constexpr unsigned kWindow = 32;
  static constexpr unsigned kWorkers = 1;
  static constexpr bool kTxn = true, kFeed = false;

  struct Req {
    Op op = Op::kMultiGet;
    unsigned n = 0;
    std::uint64_t keys[kAccounts] = {};
    std::uint64_t exp[2] = {}, des[2] = {};  // wire form (v + 1)
    std::uint64_t out[kAccounts] = {};       // snapshot / witness
  };

  explicit TxnBank(std::uint64_t seed)
      : rng(seed), zipf(kGroups), view(kGroups * kAccounts, kOpening) {}

  static Svc::Config config() {
    Svc::Config c;
    c.queues = 4;
    c.queue_capacity = 32768;
    c.batch = 16;
    c.max_sessions = 6;
    c.tickets_per_session = kWindow;
    c.txn = true;  // default engine: Config::txn_engine left as is
    c.map = {.shards = kShards,
             .buckets_per_shard = kGroups * kAccounts / kShards / 4,
             .capacity_per_shard = kGroups * kAccounts / kShards + 2048};
    return c;
  }

  static void preload(Svc& svc) {
    auto ctx = svc.make_txn_ctx();
    for (std::uint64_t g = 0; g < kGroups; ++g) {
      std::uint64_t keys[kAccounts], vals[kAccounts];
      for (unsigned a = 0; a < kAccounts; ++a) {
        keys[a] = g * kAccounts + a;
        vals[a] = kOpening;
      }
      if (svc.txn().multi_put(ctx, keys, vals) != moir::txn::TxnStatus::kOk) {
        die("txn_bank preload failed");
      }
    }
  }

  void next(Req& r) {
    const std::uint64_t base = zipf.next_scrambled(rng) * kAccounts;
    if (rng.next_below(5) == 0) {
      auto a = static_cast<unsigned>(rng.next_below(kAccounts));
      auto b = static_cast<unsigned>((a + 1 + rng.next_below(kAccounts - 1)) %
                                     kAccounts);
      std::uint64_t va = view[base + a], vb = view[base + b];
      if (va < vb) {
        std::swap(a, b);
        std::swap(va, vb);
      }
      if (va > 0) {
        const std::uint64_t x = 1 + rng.next_below(std::min<std::uint64_t>(va, 50));
        r.op = Op::kMultiCas;
        r.n = 2;
        r.keys[0] = base + a;
        r.keys[1] = base + b;
        r.exp[0] = va + 1;
        r.exp[1] = vb + 1;
        r.des[0] = va - x + 1;
        r.des[1] = vb + x + 1;
        return;
      }
    }
    r.op = Op::kMultiGet;
    r.n = kAccounts;
    for (unsigned i = 0; i < kAccounts; ++i) r.keys[i] = base + i;
  }

  static std::optional<Ticket> submit(Svc& svc, Client& c, Req& r) {
    const std::span<const std::uint64_t> keys(r.keys, r.n);
    if (r.op == Op::kMultiGet) return svc.submit_multi(c, r.op, keys);
    return svc.submit_multi(c, r.op, keys, std::span(r.des, 2),
                            std::span(r.exp, 2));
  }
  static std::optional<Response> poll(Svc& svc, Client& c, const Ticket& t,
                                      Req& r) {
    return svc.poll(c, t, std::span(r.out, r.n));
  }

  void check(Req& r, const Response& resp, Measure& m, std::uint64_t t) {
    if (r.op == Op::kMultiGet) {
      ++m.multi_gets;
      if (m.plant_now(t, 1)) r.out[0] += 1;
      std::uint64_t sum = 0;
      for (unsigned i = 0; i < r.n; ++i) {
        if (r.out[i] == 0) m.violate("txn_bank: snapshot shows a missing account");
        sum += r.out[i] - 1;
        view[r.keys[i]] = static_cast<std::uint32_t>(r.out[i] - 1);
      }
      if (sum != kGroupSum) m.violate("txn_bank: snapshot group sum changed");
      return;
    }
    ++m.multi_cas;
    if (resp.status == Status::kOk) {
      for (unsigned i = 0; i < 2; ++i) {
        view[r.keys[i]] = static_cast<std::uint32_t>(r.des[i] - 1);
      }
      return;
    }
    // A comparison miss is a result: refresh the view from the witness.
    ++m.cas_misses;
    for (unsigned i = 0; i < 2; ++i) {
      if (r.out[i] == 0 || r.out[i] > kGroupSum + 1) {
        m.violate("txn_bank: transfer witness out of range");
      } else {
        view[r.keys[i]] = static_cast<std::uint32_t>(r.out[i] - 1);
      }
    }
  }

  static void verify_end(Svc& svc, Measure& m) {
    auto ctx = svc.make_txn_ctx();
    std::uint64_t total = 0;
    for (std::uint64_t g = 0; g < kGroups; ++g) {
      std::uint64_t keys[kAccounts], out[kAccounts];
      for (unsigned a = 0; a < kAccounts; ++a) keys[a] = g * kAccounts + a;
      svc.txn().multi_get(ctx, keys, out);
      for (const auto w : out) total += w == 0 ? 0 : w - 1;
    }
    if (m.plant_now(m.t_start, 2)) total += 1;
    if (total != kGroups * kGroupSum) m.violate("txn_bank: total balance not conserved");
  }

  std::uint64_t ladder_key(Xoshiro256& g) const {
    return zipf.next_scrambled(g) * kAccounts + g.next_below(kAccounts);
  }
  static std::uint64_t ladder_value(std::uint64_t) { return 0; }

  Xoshiro256 rng;
  moir::ZipfianGenerator zipf;
  std::vector<std::uint32_t> view;  // last balance this client saw
};

// The service embedded in the generator thread (cfg.workers == 0): one
// call routes every session's ring and executes until the shard queues are
// empty. The generator is then each session ring's only consumer, as the
// SPSC ring requires.
struct InlinePump {
  explicit InlinePump(Svc& s)
      : svc(s), rc(s.make_router_ctx()), w(s.make_worker_ctx()) {}
  void run() {
    svc.pump_router(rc);
    while (svc.pump(w) > 0) {
    }
  }
  Svc& svc;
  decltype(std::declval<Svc&>().make_router_ctx()) rc;
  Svc::WorkerCtx w;
};

// Closed loop: kSessions x kWindow slots, each resubmitted as soon as its
// response is seen. Latency runs from submit; generator lag from the
// moment the slot became free. `embedded`: the generator pumps the
// service itself at the start of every sweep.
template <bool kTraced, class Shape>
void closed_loop(Svc& svc, Shape& sh, Measure& m, Trace* tr, double seconds,
                 int plant, bool embedded) {
  std::unique_ptr<InlinePump> inline_pump;
  std::unique_ptr<CpuRotor> rotor;
  if (embedded) {
    inline_pump = std::make_unique<InlinePump>(svc);
    rotor = std::make_unique<CpuRotor>();
  }
  std::vector<Client> clients;
  for (unsigned s = 0; s < Shape::kSessions; ++s) clients.push_back(svc.connect());
  struct Slot {
    unsigned c = 0;
    Ticket t{};
    std::uint64_t submitted = 0;
    bool live = false;
    typename Shape::Req req{};
  };
  std::vector<Slot> slots(Shape::kSessions * Shape::kWindow);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].c = static_cast<unsigned>(i % Shape::kSessions);
  }
  const auto issue = [&](Slot& s, std::uint64_t due) {
    sh.next(s.req);
    const std::uint64_t t0 = now_ns();
    const auto t = Shape::submit(svc, clients[s.c], s.req);
    if constexpr (kTraced) {
      if (t) tr->on_submit(t0, now_ns(), clients[s.c].session(), *t);
    }
    const bool counted = m.in_window(t0);
    if (counted) {
      ++m.attempted;
      m.lag.record(t0 > due ? t0 - due : 0);
    }
    if (!t) {
      if (counted) ++m.failed;
      return;
    }
    s.t = *t;
    s.submitted = t0;
    s.live = true;
  };

  m.start(seconds, plant);
  if constexpr (kTraced) tr->set_window(m.t_start, m.t_end);
  for (auto& s : slots) issue(s, now_ns());
  for (;;) {
    if (inline_pump) inline_pump->run();
    const std::uint64_t sweep = now_ns();
    m.tick(sweep);
    if (rotor) rotor->tick(sweep);
    const bool stopping = sweep >= m.t_end;
    bool any_live = false;
    for (auto& s : slots) {
      if (!s.live) {
        if (!stopping) issue(s, now_ns());
        any_live |= s.live;
        continue;
      }
      std::uint64_t ta = 0;
      if constexpr (kTraced) ta = now_ns();
      const auto r = Shape::poll(svc, clients[s.c], s.t, s.req);
      if constexpr (kTraced) tr->on_poll(ta, now_ns());
      if (!r) {
        any_live = true;
        continue;
      }
      const std::uint64_t seen = now_ns();
      s.live = false;
      if (r->status == Status::kOverload) {
        if (m.in_window(seen)) ++m.failed;
      } else {
        sh.check(s.req, *r, m, seen);
        m.complete(s.submitted, seen);
      }
      if constexpr (kTraced) {
        tr->on_complete(clients[s.c].session(), s.t, s.submitted, ta, seen);
      }
      if (!stopping) issue(s, seen);
      any_live |= s.live;
    }
    if (stopping && !any_live) break;
  }
  m.finish();
}

// kv_churn_feed: every value the generator writes is (nonce << 16 | key)
// with a nonce never reused, so a find hit or a feed record can be checked
// to hold a value this generator actually wrote for that very key.
//
// The store holds 64K keys and all traffic goes to a hot set of 4K. The
// cold keys also make set-up mostly insert work: with 4K keys it was
// mostly zeroing the ticket windows, a memory-bound ~1.5 ms whose median
// drifted ~40% between sets of runs.
struct ChurnFeed {
  static constexpr const char* kName = "kv_churn_feed";
  static constexpr std::uint64_t kKeys = 4096;        // hot set
  static constexpr std::uint64_t kStoreKeys = 65536;  // 16 bits
  static constexpr unsigned kShards = 4;
  static constexpr unsigned kSubs = 4;          // one per dispatch queue
  static constexpr unsigned kPollEvery = 8;     // every 8th arrival: kPoll
  static constexpr unsigned kPollMax = moir::svc::kMaxTxnKeys;
  // Offered arrivals per second, well under the feed-mode capacity, and
  // a window deep enough that the generator seldom waits for a ticket:
  // it rides out an ~80 ms stall of the VM.
  static constexpr double kRate = 400e3;
  static constexpr std::uint32_t kWindow = 8192;
  static constexpr unsigned kWorkers = 1;
  static constexpr bool kTxn = false, kFeed = true;

  struct Req {
    Op op = Op::kFind;
    std::uint64_t key = 0, value = 0;
  };

  explicit ChurnFeed(std::uint64_t seed) : rng(seed), arrivals(seed ^ 0xa5a5a5a5u) {}

  static std::uint64_t encode(std::uint64_t nonce, std::uint64_t key) {
    return nonce << 16 | key;
  }
  bool written(std::uint64_t key, std::uint64_t v) const {
    return (v & (kStoreKeys - 1)) == key && (v >> 16) < next_nonce;
  }

  static Svc::Config config() {
    Svc::Config c;
    c.queues = kSubs;
    c.queue_capacity = 32768;
    c.batch = 16;
    c.max_sessions = 4;
    c.tickets_per_session = kWindow;
    c.feed = true;
    c.feed_max_subscribers = kSubs;
    c.map = {.shards = kShards,
             .buckets_per_shard = kStoreKeys / kShards / 4,
             .capacity_per_shard = kStoreKeys / kShards + 8192};
    return c;
  }

  static void preload(Svc& svc) {
    auto ctx = svc.make_map_ctx();
    for (std::uint64_t k = 0; k < kStoreKeys; ++k) {
      if (!svc.map().insert(ctx, k, encode(k, k))) die("kv_churn_feed preload failed");
    }
  }

  void next(Req& r) {
    r.key = rng.next_below(kKeys);
    const std::uint64_t dice = rng.next_below(10);
    r.op = dice < 4 ? Op::kFind
                    : dice < 8 ? Op::kUpsert : dice < 9 ? Op::kInsert : Op::kErase;
    r.value = (r.op == Op::kUpsert || r.op == Op::kInsert)
                  ? encode(next_nonce++, r.key)
                  : 0;
  }

  void check(const Req& r, Response resp, Measure& m, std::uint64_t t) {
    switch (r.op) {
      case Op::kFind:
        if (resp.status == Status::kOk && m.plant_now(t, 1)) {
          resp.value = encode(next_nonce, r.key);
        }
        if (resp.status == Status::kOk && !written(r.key, resp.value)) {
          m.violate("kv_churn_feed: find returned a value never written for its key");
        }
        break;
      case Op::kUpsert:  // inserted or updated in place: committed either way
        ++m.committed;
        break;
      case Op::kInsert:
      case Op::kErase:
        if (resp.status == Status::kOk) ++m.committed;
        break;
      default:
        break;
    }
  }

  // Records of one subscription, in the order its kPolls were submitted.
  void on_records(Svc& svc, unsigned sub, const moir::feed::Record* recs,
                  unsigned n, Measure& m, std::uint64_t t) {
    for (unsigned i = 0; i < n; ++i) {
      moir::feed::Record r = recs[i];
      if (seen[sub] && m.plant_now(t, 2)) r.version = last[sub];
      const std::uint64_t ver = r.version & ~moir::feed::kResyncBit;
      if (seen[sub] && ver <= last[sub]) {
        m.violate("kv_churn_feed: feed versions not monotone within a subscription");
      }
      seen[sub] = true;
      last[sub] = ver;
      if (r.key >= kKeys || svc.shard_of(r.key) != sub) {
        m.violate("kv_churn_feed: feed record from another shard");
      } else if (r.value != 0 && !written(r.key, r.value - 1)) {
        m.violate("kv_churn_feed: feed record holds a value never written");
      }
      ++m.delivered;
    }
  }

  static void verify_end(Svc&, Measure&) {}

  std::uint64_t ladder_key(Xoshiro256& g) const { return g.next_below(kKeys); }
  static std::uint64_t ladder_value(std::uint64_t key) { return encode(key, key); }

  Xoshiro256 rng;
  Xoshiro256 arrivals;
  std::uint64_t next_nonce = kStoreKeys;  // preload used [0, kStoreKeys)
  bool seen[kSubs] = {};
  std::uint64_t last[kSubs] = {};
};

// Open loop: Poisson arrivals at ChurnFeed::kRate from one generator over
// two data sessions and one subscription session. Latency runs from the
// SCHEDULED arrival, so a stall is charged to every request it delays.
template <bool kTraced>
void open_loop(Svc& svc, ChurnFeed& sh, Measure& m, Trace* tr, double seconds,
               int plant) {
  Client data[2] = {svc.connect(), svc.connect()};
  Client pc = svc.connect();
  std::uint64_t tokens[ChurnFeed::kSubs];
  for (unsigned q = 0; q < ChurnFeed::kSubs; ++q) {
    const auto t = svc.submit(pc, Op::kSubscribe, q, /*shard filter=*/1);
    if (!t) die("kv_churn_feed: subscribe shed");
    const Response r = svc.wait(pc, *t);
    if (r.status != Status::kOk) die("kv_churn_feed: subscribe refused");
    tokens[q] = r.value;
  }

  struct Pending {
    Ticket t{};
    std::uint64_t sched = 0, submitted = 0;
    unsigned c = 0;
    ChurnFeed::Req req{};
  };
  std::vector<Pending> inflight;
  inflight.reserve(2 * ChurnFeed::kWindow);
  std::deque<Pending> polls[ChurnFeed::kSubs];
  moir::feed::Record recs[ChurnFeed::kPollMax];
  const double gap_ns = 1e9 / ChurnFeed::kRate;

  const auto on_delivery = [&](unsigned sub, const Svc::FeedDelivery& d,
                               std::uint64_t t) {
    if (d.status == Status::kOverload) {
      if (m.in_window(t)) ++m.failed;
      return false;
    }
    if (d.status != Status::kOk) m.violate("kv_churn_feed: kPoll token rejected");
    if (d.overrun) ++m.overruns;
    sh.on_records(svc, sub, recs, d.delivered, m, t);
    return true;
  };

  const auto poll_all = [&] {
    for (std::size_t i = 0; i < inflight.size();) {
      Pending& p = inflight[i];
      std::uint64_t ta = 0;
      if constexpr (kTraced) ta = now_ns();
      const auto r = svc.poll(data[p.c], p.t);
      if constexpr (kTraced) tr->on_poll(ta, now_ns());
      if (!r) {
        ++i;
        continue;
      }
      const std::uint64_t seen = now_ns();
      if (r->status == Status::kOverload) {
        if (m.in_window(seen)) ++m.failed;
      } else {
        sh.check(p.req, *r, m, seen);
        m.complete(p.sched, seen);
      }
      if constexpr (kTraced) {
        tr->on_complete(data[p.c].session(), p.t, p.submitted, ta, seen);
      }
      p = inflight.back();
      inflight.pop_back();
    }
    for (unsigned sub = 0; sub < ChurnFeed::kSubs; ++sub) {
      while (!polls[sub].empty()) {
        const Pending& p = polls[sub].front();
        std::uint64_t ta = 0;
        if constexpr (kTraced) ta = now_ns();
        const auto d = svc.poll_feed(pc, p.t, recs, ChurnFeed::kPollMax);
        if constexpr (kTraced) tr->on_poll(ta, now_ns());
        if (!d) break;
        const std::uint64_t seen = now_ns();
        ++m.kpolls;
        if (on_delivery(sub, *d, seen)) {
          m.complete(p.sched, seen);
          if (m.in_window(seen)) m.kpoll_rt.record(seen - p.submitted);
        }
        if constexpr (kTraced) {
          tr->on_complete(pc.session(), p.t, p.submitted, ta, seen);
        }
        polls[sub].pop_front();
      }
    }
  };

  m.start(seconds, plant);
  if constexpr (kTraced) tr->set_window(m.t_start, m.t_end);
  double next = static_cast<double>(m.t_begin);
  std::uint64_t n = 0;
  for (;;) {
    const std::uint64_t now = now_ns();
    m.tick(now);
    if (now >= m.t_end) break;
    while (next <= static_cast<double>(now)) {
      Pending p;
      p.sched = static_cast<std::uint64_t>(next);
      next += -std::log(1.0 - sh.arrivals.next_double()) * gap_ns;
      ++n;
      const bool is_poll = n % ChurnFeed::kPollEvery == 0;
      Client* c = &pc;
      if (is_poll) {
        p.c = static_cast<unsigned>((n / ChurnFeed::kPollEvery) % ChurnFeed::kSubs);
      } else {
        p.c = static_cast<unsigned>(n & 1);
        c = &data[p.c];
        sh.next(p.req);
      }
      // A full ticket window is the client's own back-pressure, not a
      // failure: the generator drains completions until a ticket frees, and
      // the wait is charged to the latency from the scheduled arrival.
      std::optional<Ticket> t;
      std::uint64_t t0 = now_ns();
      const std::uint64_t first = t0;
      for (;;) {
        t = is_poll ? svc.submit(pc, Op::kPoll, tokens[p.c], ChurnFeed::kPollMax)
                    : svc.submit(*c, p.req.op, p.req.key, p.req.value);
        if (t) break;
        poll_all();
        t0 = now_ns();
        m.tick(t0);
        if (t0 - first > kStuckNs) die("kv_churn_feed: no ticket freed in 10 s");
      }
      if constexpr (kTraced) tr->on_submit(t0, now_ns(), c->session(), *t);
      if (m.in_window(t0)) {
        ++m.attempted;
        m.lag.record(t0 > p.sched ? t0 - p.sched : 0);
      }
      p.t = *t;
      p.submitted = t0;
      if (is_poll) {
        polls[p.c].push_back(p);
      } else {
        inflight.push_back(p);
      }
    }
    poll_all();
  }
  for (;;) {
    bool idle = inflight.empty();
    for (const auto& q : polls) idle = idle && q.empty();
    if (idle) break;
    poll_all();
  }
  m.finish();
  // Every write has committed and been published: poll each subscription
  // until it comes back short, so delivered / committed is exact.
  for (unsigned sub = 0; sub < ChurnFeed::kSubs; ++sub) {
    for (;;) {
      const auto t = svc.submit(pc, Op::kPoll, tokens[sub], ChurnFeed::kPollMax);
      if (!t) die("kv_churn_feed: catch-up kPoll shed");
      const auto d = svc.wait_feed(pc, *t, recs, ChurnFeed::kPollMax);
      ++m.kpolls;
      on_delivery(sub, d, now_ns());
      if (d.delivered < ChurnFeed::kPollMax && !d.overrun) break;
    }
  }
  for (unsigned q = 0; q < ChurnFeed::kSubs; ++q) {
    const auto t = svc.submit(pc, Op::kUnsubscribe, tokens[q]);
    if (t) svc.wait(pc, *t);
  }
}

// ----- Ladder: single-thread timings on the quiescent service -------------

struct Ladder {
  double find_ns = 0, upsert_ns = 0, insert_ns = 0, erase_ns = 0;
  double llsc_ns = 0, multi_get_ns = 0, multi_cas_ns = 0, kpoll_us = 0;
};

// Median over kLadderReps of the mean ns per call of f(i), i < n.
template <class F>
double ns_per_op(unsigned n, F&& f) {
  std::vector<double> reps;
  for (unsigned r = 0; r < kLadderReps; ++r) {
    const std::uint64_t t0 = now_ns();
    for (unsigned i = 0; i < n; ++i) f(i);
    reps.push_back(static_cast<double>(now_ns() - t0) / n);
  }
  return median(reps);
}

std::atomic<std::uint64_t> g_sink{0};  // keeps ladder reads observable

template <class Shape>
void map_ladder(Svc& svc, const Shape& sh, std::uint64_t seed, Ladder& out) {
  auto& map = svc.map();
  auto ctx = svc.make_map_ctx();
  Xoshiro256 g(seed ^ 0x1add3u);
  std::vector<std::uint64_t> keys(kLadderOps);
  for (auto& k : keys) k = sh.ladder_key(g);
  std::uint64_t sink = 0;
  out.find_ns = ns_per_op(kLadderOps, [&](unsigned i) {
    sink += map.find(ctx, keys[i]).value_or(0);
  });
  out.upsert_ns = ns_per_op(kLadderOps, [&](unsigned i) {
    map.upsert(ctx, keys[i], Shape::ladder_value(keys[i]));
  });
  // Fresh keys far above the workload's keyspace, inserted then erased in
  // batches the map's slack capacity holds.
  constexpr unsigned kFresh = 4096;
  constexpr std::uint64_t kBase = std::uint64_t{1} << 40;
  std::vector<double> ins, era;
  for (unsigned r = 0; r < kLadderReps; ++r) {
    std::uint64_t t0 = now_ns();
    for (unsigned i = 0; i < kFresh; ++i) sink += map.insert(ctx, kBase + i, i);
    ins.push_back(static_cast<double>(now_ns() - t0) / kFresh);
    t0 = now_ns();
    for (unsigned i = 0; i < kFresh; ++i) sink += map.erase(ctx, kBase + i);
    era.push_back(static_cast<double>(now_ns() - t0) / kFresh);
    map.purge(ctx);
  }
  out.insert_ns = median(ins);
  out.erase_ns = median(era);
  g_sink.fetch_add(sink, std::memory_order_relaxed);
}

void core_ladder(Ladder& out) {
  Sub sub;
  Sub::Var var;
  sub.init_var(var, 0);
  auto ctx = sub.make_ctx();
  out.llsc_ns = ns_per_op(kLadderOps * 10, [&](unsigned) {
    Sub::Keep keep;
    const std::uint64_t v = sub.ll(ctx, var, keep);
    sub.sc(ctx, var, keep, (v + 1) & sub.max_value());
  });
}

// multi_get of a 4-account group and a 1-unit transfer inside it, groups
// drawn by `pick`. Single-threaded, so the local view is exact and every
// transfer must commit.
template <class Txn, class Pick>
void txn_ladder(Txn& txn, std::uint64_t groups, Pick&& pick, Ladder& out) {
  constexpr unsigned kA = TxnBank::kAccounts;
  auto ctx = txn.make_ctx();
  std::vector<std::uint64_t> view(groups * kA);
  for (std::uint64_t g = 0; g < groups; ++g) {
    std::uint64_t keys[kA];
    for (unsigned a = 0; a < kA; ++a) keys[a] = g * kA + a;
    txn.multi_get(ctx, keys, std::span(&view[g * kA], kA));
  }
  constexpr unsigned kOps = kLadderOps / 4;
  std::vector<std::uint64_t> picks(kOps);
  for (auto& p : picks) p = pick();
  std::uint64_t sink = 0;
  out.multi_get_ns = ns_per_op(kOps, [&](unsigned i) {
    std::uint64_t keys[kA], vals[kA];
    for (unsigned a = 0; a < kA; ++a) keys[a] = picks[i] * kA + a;
    txn.multi_get(ctx, keys, vals);
    sink += vals[0];
  });
  bool all_committed = true;
  out.multi_cas_ns = ns_per_op(kOps, [&](unsigned i) {
    const std::uint64_t base = picks[i] * kA;
    const std::uint64_t a = base + i % kA, b = base + (i + 1) % kA;
    const std::uint64_t from = view[a] >= view[b] ? a : b;
    const std::uint64_t to = from == a ? b : a;
    if (view[from] <= 1) return;  // wire form: both balances are 0
    const std::uint64_t keys[2] = {from, to};
    const std::uint64_t exp[2] = {view[from], view[to]};
    const std::uint64_t des[2] = {view[from] - 1, view[to] + 1};
    if (txn.multi_cas(ctx, keys, exp, des) == moir::txn::TxnStatus::kOk) {
      view[from] = des[0];
      view[to] = des[1];
    } else {
      all_committed = false;
    }
  });
  if (!all_committed) die("txn ladder: an uncontended transfer missed");
  g_sink.fetch_add(sink, std::memory_order_relaxed);
}

// Workloads without a txn store time the txn layer on a private one of
// the same shape (4096 groups opened at TxnBank::kOpening).
void private_txn_ladder(std::uint64_t seed, Ladder& out) {
  using Map = moir::ShardedHashMap<Sub, Reclaim>;
  constexpr std::uint64_t kGroups = 4096;
  Sub sub;
  Map map(sub, 4, Map::Config{.shards = 4, .buckets_per_shard = 1024,
                              .capacity_per_shard = 8192});
  moir::txn::TxnKv<Sub, Reclaim> txn(map, 4);
  {
    auto ctx = txn.make_ctx();
    for (std::uint64_t g = 0; g < kGroups; ++g) {
      std::uint64_t keys[4], vals[4];
      for (unsigned a = 0; a < 4; ++a) {
        keys[a] = g * 4 + a;
        vals[a] = TxnBank::kOpening;
      }
      txn.multi_put(ctx, keys, vals);
    }
  }
  moir::ZipfianGenerator zipf(kGroups);
  Xoshiro256 g(seed ^ 0x7a11u);
  txn_ladder(txn, kGroups, [&] { return zipf.next_scrambled(g); }, out);
}

// Quiescent kPoll round trip through a private feed-mode service pumped
// by this thread (submit -> pump_router -> pump -> poll_feed), for the
// workloads whose service has no feed.
double private_kpoll_us() {
  Sub sub;
  Svc::Config cfg;
  cfg.workers = 0;
  cfg.queues = 4;
  cfg.queue_capacity = 64;
  cfg.max_sessions = 1;
  cfg.tickets_per_session = 4;
  cfg.feed = true;
  cfg.feed_max_subscribers = 1;
  cfg.map = {.shards = 4, .buckets_per_shard = 16, .capacity_per_shard = 64};
  Svc svc(sub, cfg);
  auto c = svc.connect();
  auto rc = svc.make_router_ctx();
  auto w = svc.make_worker_ctx();
  const auto roundtrip = [&](Op op, std::uint64_t key, std::uint64_t value) {
    const auto t = svc.submit(c, op, key, value);
    if (!t) die("kpoll ladder: submit shed");
    svc.pump_router(rc);
    for (;;) {
      svc.pump(w);
      if (const auto r = svc.poll(c, *t)) return *r;
    }
  };
  const std::uint64_t token = roundtrip(Op::kSubscribe, 0, 1).value;
  LatencyRecorder rec;
  for (unsigned i = 0; i < 20000; ++i) {
    const std::uint64_t t0 = now_ns();
    roundtrip(Op::kPoll, token, ChurnFeed::kPollMax);
    rec.record(now_ns() - t0);
  }
  roundtrip(Op::kUnsubscribe, token, 0);
  return rec.quantile(0.5) / 1e3;
}

// ----- One run of a workload ---------------------------------------------

struct Phase {
  Measure m;
  std::vector<double> setup_s;
  moir::stats::Snapshot counters;  // delta over the traced run
  std::uint64_t retire_list_max = 0;
  std::unique_ptr<Trace> trace;
  Ladder ladder;
};

template <class Shape>
void drive(bool traced, bool embedded, Svc& svc, Shape& sh, Phase& ph,
           double seconds, int plant) {
  if constexpr (Shape::kFeed) {
    if (traced) {
      open_loop<true>(svc, sh, ph.m, ph.trace.get(), seconds, plant);
    } else {
      open_loop<false>(svc, sh, ph.m, nullptr, seconds, plant);
    }
  } else {
    if (traced) {
      closed_loop<true>(svc, sh, ph.m, ph.trace.get(), seconds, plant, false);
    } else {
      closed_loop<false>(svc, sh, ph.m, nullptr, seconds, plant, embedded);
    }
  }
}

// `embedded`: an untraced closed loop whose generator pumps the service
// (cfg.workers = 0) instead of the service's router and worker threads.
template <class Shape>
std::unique_ptr<Phase> run_phase(std::uint64_t seed, bool traced, bool embedded,
                                 double seconds, int plant) {
  auto ph = std::make_unique<Phase>();
  Shape sh(seed);
  Sub sub;
  Svc::Config cfg = Shape::config();
  cfg.workers = traced || embedded ? 0 : Shape::kWorkers;
  cfg.max_workers = 0;
  moir::stats::set_counting(traced);
  if (traced) moir::stats::reset();

  // Set-up = service construction + preload, repeated; the last one runs.
  // Cheap set-ups repeat more (up to kSetupBudgetS in total, at most 100
  // times) so their median is as steady as an expensive one's. Each is
  // timed on the constructing thread's CPU clock, which leaves out time
  // the hypervisor stole: on a busy host that doubled the wall time.
  // Like the embedded generator, the repeats move from CPU to CPU. The
  // threads a threaded service starts inherit that one CPU, so only where
  // there are none (embedded) or they are re-pinned below (open loop).
  std::unique_ptr<Svc> svc;
  double spent = 0;
  std::optional<CpuRotor> setup_rotor;
  if (!traced && (embedded || Shape::kFeed)) setup_rotor.emplace();
  for (unsigned r = 0; r < (traced ? 1u : 100u); ++r) {
    if (!traced && r >= kSetupRepeats && spent >= kSetupBudgetS) break;
    svc.reset();
    if (setup_rotor) setup_rotor->advance();
    const std::uint64_t t0 = now_ns(), c0 = clock_ns(CLOCK_THREAD_CPUTIME_ID);
    svc = std::make_unique<Svc>(sub, cfg);
    Shape::preload(*svc);
    ph->setup_s.push_back(static_cast<double>(clock_ns(CLOCK_THREAD_CPUTIME_ID) - c0) / 1e9);
    spent += static_cast<double>(now_ns() - t0) / 1e9;
  }
  setup_rotor.reset();

  std::vector<std::thread> pumps;
  if (traced) {
    ph->trace = std::make_unique<Trace>(cfg, Shape::kWorkers);
    pumps.emplace_back(router_main, std::ref(*svc), std::ref(*ph->trace));
    for (unsigned w = 0; w < Shape::kWorkers; ++w) {
      pumps.emplace_back(exec_main, std::ref(*svc), std::ref(*ph->trace), w);
    }
  }
  const moir::stats::Snapshot before = moir::stats::snapshot();
  // Only the open loop pins: its lightly loaded threads spend their idle
  // time yielding, and the scheduler then stacks two of them on one CPU.
  // The threaded closed loops keep every thread busy; the embedded one
  // moves its thread itself (CpuRotor).
  cpu_set_t allowed{};
  if (Shape::kFeed) allowed = pin_threads();
  drive(traced, embedded, *svc, sh, *ph, seconds, plant);
  if (Shape::kFeed) unpin(allowed);
  if (traced) {
    ph->trace->stop_router.store(true, std::memory_order_release);
    pumps[0].join();
    ph->trace->stop_workers.store(true, std::memory_order_release);
    for (std::size_t i = 1; i < pumps.size(); ++i) pumps[i].join();
  } else {
    svc->stop();
  }
  ph->counters = moir::stats::snapshot() - before;
  ph->retire_list_max =
      moir::stats::merged_histogram(moir::stats::HistId::kRetireListLen).max();
  moir::stats::set_counting(false);
  Shape::verify_end(*svc, ph->m);

  if (traced) {
    map_ladder(*svc, sh, seed, ph->ladder);
    core_ladder(ph->ladder);
    if constexpr (Shape::kTxn) {
      Xoshiro256 g(seed ^ 0x7a11u);
      txn_ladder(svc->txn(), Shape::kGroups,
                 [&] { return sh.zipf.next_scrambled(g); }, ph->ladder);
    } else {
      private_txn_ladder(seed, ph->ladder);
    }
    ph->ladder.kpoll_us = Shape::kFeed ? ph->m.kpoll_rt.quantile(0.5) / 1e3
                                       : private_kpoll_us();
  }
  return ph;
}

// ----- Output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms) {
  for (const auto& mt : ms) {
    std::printf("%-32s %14.6g %s\n", mt.name.c_str(), mt.value, mt.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), ms[i].value, ms[i].unit);
  }
  std::printf("}}\n");
}

void print_meta(const char* workload, std::uint64_t seed, unsigned budget,
                const Measure& m, const char* phase) {
  std::printf(
      "# meta {\"workload\": \"%s\", \"seed\": %llu, \"phase\": \"%s\", "
      "\"nproc\": %u, \"threads_budget\": %u, \"threads\": %ld, "
      "\"nivcsw\": %ld, \"steal_ticks\": %ld, \"windows\": %u, "
      "\"clean_windows\": %zu, \"windows_share_0.9\": %zu, "
      "\"latency_samples\": %llu}\n",
      workload, static_cast<unsigned long long>(seed), phase, usable_cpus(),
      budget, m.threads, m.nivcsw, m.steal, m.nwin,
      m.windows_at_share(kCleanShare), m.windows_at_share(0.9),
      static_cast<unsigned long long>(m.samples()));
}

void report_violations(const Measure& m, const char* phase) {
  if (m.violations == 0) return;
  std::printf("INTEGRITY FAILURE (%s): %llu violations, first: %s\n", phase,
              static_cast<unsigned long long>(m.violations),
              m.first_violation.c_str());
}

void dump_spans(const std::string& path, const Trace& tr, std::uint64_t t0) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "kvbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  const auto emit = [&](const SpanLog& log, const std::string& thread) {
    for (const Span& s : log.spans) {
      const bool pass = std::strstr(s.name, "_pass") != nullptr;
      const long long start = static_cast<long long>(s.start - t0);
      const long long end = static_cast<long long>(s.end - t0);
      if (pass) {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"thread\": \"%s\", \"pass\": %llu, "
                     "\"handled\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                     s.name, thread.c_str(), static_cast<unsigned long long>(s.b),
                     static_cast<unsigned long long>(s.c), start, end);
      } else {
        const char* parent = std::strcmp(s.name, "request") == 0 ? "" : "request";
        std::fprintf(f,
                     "{\"name\": \"%s\", \"thread\": \"%s\", \"id\": "
                     "\"s%llu.t%llu.g%llu\", \"parent\": \"%s\", "
                     "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                     s.name, thread.c_str(), static_cast<unsigned long long>(s.a),
                     static_cast<unsigned long long>(s.b),
                     static_cast<unsigned long long>(s.c), parent, start, end);
      }
    }
  };
  emit(tr.gen_log, "generator");
  emit(tr.router.log, "router");
  for (std::size_t i = 0; i < tr.execs.size(); ++i) {
    emit(tr.execs[i].log, "exec" + std::to_string(i));
  }
  std::fclose(f);
}

std::vector<Metric> end_to_end(const Phase& ph) {
  return {{"throughput_ops_s", ph.m.throughput(), "1/s"},
          {"latency_p50_us", ph.m.latency_us(ph.m.w_p50), "us"},
          {"latency_p95_us", ph.m.latency_us(ph.m.w_p95), "us"},
          {"setup_s", median(ph.setup_s), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

// Printed only, not part of the JSON: figures that exist for some
// workloads only, that read 0 on a healthy run, or (p99) whose run-to-run
// spread on the open-loop workload is set by the host, not the service.
void print_workload_figures(const Phase& ph, bool feed) {
  const Measure& m = ph.m;
  std::printf("%-32s %14.6g %s\n", "latency_p99_us", m.latency_us(m.w_p99), "us");
  std::printf("%-32s %14.6g %s\n", "error_rate",
              ratio(static_cast<double>(m.failed), static_cast<double>(m.attempted)),
              "ratio");
  std::printf("%-32s %14llu %s\n", "latency_samples",
              static_cast<unsigned long long>(m.samples()), "count");
  if (feed) {  // the open-loop workload
    std::printf("%-32s %14.6g %s\n", "gen_lag_p99_us", m.lag.quantile(0.99) / 1e3, "us");
    std::printf("%-32s %14.6g %s\n", "feed_delivery_ratio",
                ratio(static_cast<double>(m.delivered),
                      static_cast<double>(m.committed)),
                "ratio");
  }
}

std::vector<Metric> per_layer(const Phase& u, const Phase& t, unsigned batch) {
  using moir::stats::Id;
  const Trace& tr = *t.trace;
  const auto& c = t.counters;
  const Measure& m = t.m;
  Pumper ex;
  for (const auto& p : tr.execs) {
    ex.passes += p.passes;
    ex.empty += p.empty;
    ex.items += p.items;
    ex.exec_ns += p.exec_ns;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double kreq = d(m.completed) / 1e3;
  const double batch_mean =
      moir::stats::merged_histogram(moir::stats::HistId::kSvcBatchSize).mean();
  const Ladder& l = t.ladder;
  return {
      {"svc.route_ns_per_req", ratio(d(tr.router.busy_ns), d(tr.router.items)), "ns"},
      {"svc.exec_ns_per_req", ratio(d(ex.exec_ns), d(ex.items)), "ns"},
      {"svc.batch_fill", batch_mean / batch, "ratio"},
      {"svc.pump_empty_share", ratio(d(ex.empty), d(ex.passes)), "ratio"},
      {"svc.submit_ns", ratio(d(tr.submit_ns), d(tr.submits)), "ns"},
      {"svc.poll_ns", ratio(d(tr.poll_ns), d(tr.polls)), "ns"},
      {"svc.queue_wait_us", tr.queue_wait.quantile(0.5) / 1e3, "us"},
      {"svc.notify_us", tr.notify.quantile(0.5) / 1e3, "us"},
      {"map.find_ns", l.find_ns, "ns"},
      {"map.upsert_ns", l.upsert_ns, "ns"},
      {"map.insert_ns", l.insert_ns, "ns"},
      {"map.erase_ns", l.erase_ns, "ns"},
      {"core.llsc_ns", l.llsc_ns, "ns"},
      {"core.sc_fail_share",
       ratio(d(c[Id::kScFail]), d(c[Id::kScSuccess] + c[Id::kScFail])), "ratio"},
      {"reclaim.free_per_retire", ratio(d(c[Id::kNodeFree]), d(c[Id::kNodeRetire])),
       "ratio"},
      {"reclaim.epoch_advance_per_kreq", ratio(d(c[Id::kEpochAdvance]), kreq), "1/kreq"},
      {"reclaim.retire_list_max", d(t.retire_list_max), "count"},
      {"txn.multi_get_ns", l.multi_get_ns, "ns"},
      {"txn.multi_cas_ns", l.multi_cas_ns, "ns"},
      {"txn.revalidate_per_get", ratio(d(c[Id::kTxnRevalidate]), d(m.multi_gets)),
       "ratio"},
      {"txn.help_per_kreq", ratio(d(c[Id::kTxnHelp]), kreq), "1/kreq"},
      {"txn.cas_miss_share", ratio(d(m.cas_misses), d(m.multi_cas)), "ratio"},
      {"stm.abort_per_commit", ratio(d(c[Id::kStmAbort]), d(c[Id::kStmCommit])),
       "ratio"},
      {"feed.poll_us", l.kpoll_us, "us"},
      {"feed.deliver_per_publish",
       ratio(d(c[Id::kFeedDeliver]), d(c[Id::kFeedPublish])), "ratio"},
      {"feed.overrun_per_kpoll", ratio(d(c[Id::kFeedOverrun]), d(m.kpolls)), "ratio"},
      {"feed.resync_count", d(c[Id::kFeedResync]), "count"},
      {"gen.lag_p99_us", u.m.lag.quantile(0.99) / 1e3, "us"},
      {"feed.delivery_ratio", ratio(d(u.m.delivered), d(u.m.committed)), "ratio"},
      {"trace.throughput_delta_ops_s", t.m.throughput() - u.m.throughput(), "1/s"},
  };
}

// tl2 figures exist only when the active engine draws version stamps.
void print_tl2_figures(const Phase& t) {
  using moir::stats::Id;
  const auto& c = t.counters;
  if (c[Id::kTl2ClockAdvance] == 0) return;
  const double gets = static_cast<double>(t.m.multi_gets);
  std::printf("%-32s %14.6g %s\n", "tl2.fallback_share",
              ratio(static_cast<double>(c[Id::kTl2Fallback]), gets), "ratio");
  std::printf("%-32s %14.6g %s\n", "tl2.revalidate_per_get",
              ratio(static_cast<double>(c[Id::kTl2Revalidate]), gets), "ratio");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int plant = 0;
  std::string span_out;
};

template <class Shape>
int bench(const Args& a) {
  // The end-to-end closed loops run embedded; a traced run's untraced half
  // keeps the service's threads, so the tracing overhead compares like
  // with like.
  const bool embedded = !Shape::kFeed && !a.trace;
  // Generator + router + workers must each get a CPU, or the figures
  // measure the scheduler instead of the service.
  const unsigned need = 2 + Shape::kWorkers, have = usable_cpus();
  if ((embedded ? 1 : need) > have) {
    std::fprintf(stderr,
                 "kvbench: %s needs %u CPUs (generator + router + %u workers), "
                 "has %u\n",
                 Shape::kName, need, Shape::kWorkers, have);
    return 2;
  }
  const double seconds = a.trace ? a.seconds / 2 : a.seconds;
  const auto u = run_phase<Shape>(a.seed, false, embedded, seconds, a.plant);
  print_meta(Shape::kName, a.seed, embedded ? 1 : need, u->m, "untraced");
  report_violations(u->m, "untraced");
  bool correct = u->m.violations == 0;
  if (!a.trace) {
    print_workload_figures(*u, Shape::kFeed);
    print_result(correct, u->m.attempted, u->m.failed, end_to_end(*u));
    return correct ? 0 : 3;
  }
  const auto t = run_phase<Shape>(a.seed, true, false, seconds, a.plant);
  print_meta(Shape::kName, a.seed, need, t->m, "traced");
  report_violations(t->m, "traced");
  correct = correct && t->m.violations == 0;
  if (!a.span_out.empty()) dump_spans(a.span_out, *t->trace, t->m.t_begin);
  print_tl2_figures(*t);
  print_result(correct, u->m.attempted + t->m.attempted, u->m.failed + t->m.failed,
               per_layer(*u, *t, Shape::config().batch));
  return correct ? 0 : 3;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (k == "--plant") {
      a.plant = std::atoi(v);
    } else if (k == "--span-out") {
      a.span_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 && a.seconds <= 120;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: kvbench --workload kv_read|kv_churn_feed|txn_bank "
                 "--seed N --seconds S --trace 0|1 [--plant 0|1|2] "
                 "[--span-out FILE]\n");
    return 2;
  }
  moir::stats::set_counting(false);
  // Keep freed memory in the heap (no per-allocation mmap, no trimming),
  // so every set-up after the first reuses pages already faulted in and
  // setup_s measures construction work rather than the VM's page-fault
  // cost, which varied 5x between otherwise identical runs.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  if (a.workload == KvRead::kName) return bench<KvRead>(a);
  if (a.workload == ChurnFeed::kName) return bench<ChurnFeed>(a);
  if (a.workload == TxnBank::kName) return bench<TxnBank>(a);
  std::fprintf(stderr, "kvbench: unknown workload %s\n", a.workload.c_str());
  return 2;
}
