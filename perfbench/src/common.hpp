/**
 * @file
 * Shared pieces of the end-to-end benchmark: timing, exact-sample
 * percentiles, the run report and the per-layer sweep entry point.
 *
 * Every latency percentile here is computed from the per-request
 * samples the benchmark itself records, never from the registry's
 * bucketed histograms (whose quantiles sit at bucket midpoints ~9%
 * apart).
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hyperplonk/prover.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Kernel threads every workload proves under (the host has 4 vCPUs;
 * fixed here rather than read from hardware_concurrency so runs on
 * different hosts measure the same configuration). */
inline constexpr size_t kKernelThreads = 4;

inline double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
ms_since(Clock::time_point a)
{
    return ms_between(a, Clock::now());
}

/** q-quantile of exact samples, linear interpolation between order
 * statistics (numpy's default). Empty input gives 0. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

inline double
mean(const std::vector<double> &v)
{
    if (v.empty()) return 0;
    double s = 0;
    for (double x : v) s += x;
    return s / double(v.size());
}

/** Process CPU seconds (all threads). */
double process_cpu_s();

/** Peak resident set size of the process so far, MB. */
double peak_rss_mb();

/** Per-kernel totals read from the registry's prover series. */
struct KernelTotals {
    std::map<std::string, double> seconds;
    std::map<std::string, uint64_t> modmuls;
};

/** Snapshot of zkspeed_prover_kernel_{seconds,modmuls_total}. */
KernelTotals kernel_totals();

/** The Table-1 and lookup kernel rows, in prover order. */
const std::vector<std::string> &kernel_names();

/** Metric-name form of a kernel row ("Construct N & D" ->
 * "construct_n_d"). */
std::string kernel_slug(const std::string &kernel);

/** What one run reports. */
struct Report {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** name -> (value, unit), end-to-end or per-layer by mode. */
    std::map<std::string, std::pair<double, std::string>> metrics;
    /** Exact counters that must repeat across runs with one seed. */
    std::map<std::string, uint64_t> exact;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Record a correctness failure (printed, flips `correct`). */
    void error(const std::string &what);
};

/** Command-line settings of one run. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/**
 * What a workload measured, handed to the per-layer sweep so the
 * direct layer calls run on the workload's own material.
 */
struct LayerInputs {
    /** log2 gates of the workload's circuits. */
    size_t num_vars = 0;
    /** An SRS the workload used (its largest size). */
    std::shared_ptr<const zkspeed::pcs::Srs> srs;
    /** A representative circuit + witness of the workload. */
    const zkspeed::hyperplonk::CircuitIndex *circuit = nullptr;
    const zkspeed::hyperplonk::Witness *witness = nullptr;
    /** Encoded PROVE frames of the workload (decode/fingerprint). */
    std::vector<const std::vector<uint8_t> *> frames;
    /** Registry kernel deltas over the timed phase and the proofs
     * they cover. */
    KernelTotals kernels;
    uint64_t kernel_proofs = 0;
    /** Set-up component medians measured by the workload (negative =
     * not measured there; the sweep measures it directly). */
    double srs_generate_ms = -1;
    double keygen_ms = -1;
};

/**
 * Direct calls into each layer (ff, curve, pcs, hyperplonk, runtime
 * wire/fingerprint) plus the kernel rows from `in`; fills the
 * per-layer metrics that do not depend on the traffic itself.
 */
void layer_sweep(const LayerInputs &in, Report &rep);

/** Fixed register-only and DRAM-bound loops, ms each. */
struct HostProbe {
    double cpu_ms = 0;
    double mem_ms = 0;
};
HostProbe host_probe();

void run_prove_2p16(const Options &opt, Report &rep);
void run_serve_mixed(const Options &opt, Report &rep);
void run_serve_cold(const Options &opt, Report &rep);

}  // namespace perfbench
