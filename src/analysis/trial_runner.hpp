// Monte-Carlo trial execution, parallelized across trials with OpenMP.
//
// Determinism contract: trial i always runs with Rng::for_stream(seed, i),
// so results are bit-identical for any thread count (including a serial
// build without OpenMP). Trials share no mutable state; each generates its
// own graph and session. This is the idiom the hpc-parallel guides
// recommend for embarrassingly parallel sweeps: parallel for over
// independent iterations, dynamic scheduling because trial cost varies with
// the random instance.
//
// ThreadSanitizer note: GCC's libgomp is not TSan-instrumented, so its
// fork/join machinery — the shared-argument struct handed to pooled worker
// threads at region entry and the barrier at region exit — is invisible to
// the race detector and reports false races in perfectly synchronized code.
// run_trials therefore keeps the parallel region capture-free: all shared
// state travels through one std::atomic slot (release store by the master,
// acquire load by each worker) and the join is mirrored by a release
// fetch_add / acquire load pair. Atomics and std::mutex are pthread-level
// primitives TSan understands, which is what lets the TSan CI stage
// (scripts/ci.sh, docs/static-analysis.md) run these suites meaningfully —
// real races in trial bodies still surface.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <type_traits>
#include <vector>

#include "util/rng.hpp"

#if defined(RADIO_HAVE_OPENMP)
#include <omp.h>
#endif

namespace radio {

namespace detail {
/// Hand-off slot for run_trials' per-call context. A global so the OpenMP
/// region below captures nothing — a captured variable would travel through
/// libgomp's uninstrumented shared-argument struct, which ThreadSanitizer
/// flags as a race on the master's stack. run_trials is not reentrant
/// (trials themselves must not call run_trials), matching how every
/// experiment driver uses it.
inline std::atomic<void*> trial_ctx_slot{nullptr};
}  // namespace detail

/// Number of worker threads trials will use (1 without OpenMP).
inline int trial_threads() noexcept {
#if defined(RADIO_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Runs `fn(trial_index, rng)` for trial_index in [0, trials) and collects
/// the results in trial order. T must be default-constructible and movable.
///
/// A throwing trial must surface as a normal catchable exception: letting it
/// escape the OpenMP parallel region calls std::terminate. The first
/// exception raised (by any thread) is captured inside the region — under a
/// std::mutex, not `#pragma omp critical`, so the capture is TSan-visible —
/// and rethrown after the join; remaining iterations still run, which is
/// fine: trials are independent and the results vector is discarded on
/// throw.
template <class T, class Fn>
std::vector<T> run_trials(int trials, std::uint64_t seed, Fn&& fn) {
  std::vector<T> results(static_cast<std::size_t>(trials));
#if defined(RADIO_HAVE_OPENMP)
  struct Ctx {
    T* results;
    int trials;
    std::uint64_t seed;
    std::remove_reference_t<Fn>* fn;
    std::exception_ptr failure;
    std::mutex failure_mutex;
    std::atomic<int> joined;
  };
  Ctx ctx{results.data(), trials, seed, &fn, nullptr, {}, {0}};
  // Release-publish the context (and with it the results buffer) to the
  // pooled worker threads; each worker acquire-loads it at region entry.
  detail::trial_ctx_slot.store(&ctx, std::memory_order_release);
#pragma omp parallel
  {
    auto* c = static_cast<Ctx*>(
        detail::trial_ctx_slot.load(std::memory_order_acquire));
#pragma omp for schedule(dynamic)
    for (int i = 0; i < c->trials; ++i) {
      try {
        Rng rng = Rng::for_stream(c->seed, static_cast<std::uint64_t>(i));
        c->results[static_cast<std::size_t>(i)] = (*c->fn)(i, rng);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(c->failure_mutex);
        if (!c->failure) c->failure = std::current_exception();
      }
    }
    // Release-publish this worker's slice of results (and any captured
    // failure) before the invisible-to-TSan join barrier.
    c->joined.fetch_add(1, std::memory_order_release);
  }
  // Synchronizes with every worker's fetch_add (they form one release
  // sequence), so the element writes above happen-before the caller's reads.
  const int team = ctx.joined.load(std::memory_order_acquire);
  (void)team;
  if (ctx.failure) std::rethrow_exception(ctx.failure);
#else
  for (int i = 0; i < trials; ++i) {
    Rng rng = Rng::for_stream(seed, static_cast<std::uint64_t>(i));
    results[static_cast<std::size_t>(i)] = fn(i, rng);
  }
#endif
  return results;
}

/// Convenience for experiments whose per-trial outcome is one double
/// (e.g. a round count).
template <class Fn>
std::vector<double> run_trials_double(int trials, std::uint64_t seed, Fn&& fn) {
  return run_trials<double>(trials, seed, static_cast<Fn&&>(fn));
}

}  // namespace radio
