/**
 * @file
 * The three workloads.
 *
 *  prove-2p16   library, closed loop, one client: prove() + pairing
 *               verify() of one random 2^16 circuit, back to back.
 *  serve-mixed  ProofService under an open loop (half PROVE, half
 *               VERIFY) of 2^10 registry families, warm key cache.
 *  serve-cold   ProofService under a closed loop of 4 outstanding
 *               PROVE jobs, each a different 2^14 circuit, so every job
 *               misses the key cache.
 *
 * Each workload builds its inputs from the seed first (untimed, in no
 * metric), then repeats its set-up several times (setup_s is the
 * median), then runs the timed phase for --seconds, then checks every
 * output. The traced run adds the per-layer metrics.
 */
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <random>
#include <thread>

#include "common.hpp"
#include "ff/counters.hpp"
#include "ff/parallel.hpp"
#include "hyperplonk/serialize.hpp"
#include "runtime/key_cache.hpp"
#include "runtime/service.hpp"
#include "runtime/wire.hpp"
#include "scenarios/registry.hpp"
#include "verify/batch_verifier.hpp"

namespace perfbench {

using namespace zkspeed;
using hyperplonk::PcsCheckMode;
using runtime::JobResponse;

namespace {

/** Seed-stream separation: one workload seed, several derived streams. */
uint64_t
derive(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 31;
    z *= 0x94d049bb133111ebULL;
    return z ^ (z >> 29);
}

/** 53-bit uniform in [0, 1): platform-independent, unlike std
 * distributions. */
double
uniform01(std::mt19937_64 &rng)
{
    return double(rng() >> 11) * 0x1.0p-53;
}

bool
pairing_verify(const std::vector<uint8_t> &vk_bytes,
               const std::vector<ff::Fr> &publics,
               const std::vector<uint8_t> &proof_bytes)
{
    auto vk = hyperplonk::serde::deserialize_verifying_key(vk_bytes);
    auto proof = hyperplonk::serde::deserialize_proof(proof_bytes);
    return vk && proof &&
           hyperplonk::verify(*vk, publics, *proof, PcsCheckMode::pairing);
}

/** One timed request: a service job, or one step of the library loop. */
struct Sample {
    size_t input = 0;  ///< which pre-built frame
    bool verify = false;
    Clock::time_point due, submit;
    bool shed = false;
    bool answered = false;
    JobResponse resp;

    /** Service-measured submit -> response-ready time. */
    double service_ms() const { return resp.metrics.total_ms; }
    /** Due -> response: the open-loop latency. */
    double
    from_due_ms() const
    {
        return ms_between(due, submit) + resp.metrics.total_ms;
    }
    Clock::time_point
    done() const
    {
        return submit + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                resp.metrics.total_ms));
    }
};

/**
 * The collector thread: harvests response futures off the submit path
 * in completion order (polling the outstanding set), stores each
 * response into its Sample, and wakes a closed-loop submitter.
 */
class Collector
{
  public:
    explicit Collector(std::vector<Sample> &samples)
        : samples_(samples), thread_([this] { loop(); })
    {}

    ~Collector() { finish(); }

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    void
    add(size_t idx, std::future<JobResponse> f)
    {
        std::lock_guard<std::mutex> lock(mu_);
        pending_.emplace_back(idx, std::move(f));
        cv_.notify_all();
    }

    /** Block until fewer than `k` requests are outstanding. @return the
     * instant the freeing response was observed (the next request's
     * due time), or now when a slot was already free. */
    Clock::time_point
    acquire_slot(size_t k)
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (pending_.size() < k) return Clock::now();
        done_cv_.wait(lock, [&] { return pending_.size() < k; });
        return last_done_;
    }

    /** Wait for every outstanding response, then stop the thread. */
    void
    finish()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closing_ = true;
            cv_.notify_all();
        }
        if (thread_.joinable()) thread_.join();
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            cv_.wait(lock, [&] { return closing_ || !pending_.empty(); });
            if (pending_.empty()) return;  // closing and drained
            bool any = false;
            for (auto it = pending_.begin(); it != pending_.end();) {
                if (it->second.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++it;
                    continue;
                }
                Sample &s = samples_[it->first];
                s.resp = it->second.get();
                s.answered = true;
                last_done_ = Clock::now();
                it = pending_.erase(it);
                any = true;
            }
            if (any) {
                done_cv_.notify_all();
                continue;
            }
            // Nothing ready: wait briefly on the oldest response
            // without holding the lock.
            auto &oldest = pending_.front().second;
            lock.unlock();
            oldest.wait_for(std::chrono::microseconds(500));
            lock.lock();
        }
    }

    std::vector<Sample> &samples_;
    std::mutex mu_;
    std::condition_variable cv_, done_cv_;
    std::deque<std::pair<size_t, std::future<JobResponse>>> pending_;
    Clock::time_point last_done_;
    bool closing_ = false;
    std::thread thread_;
};

/** The traced run's phase hooks: registry kernel snapshots and the
 * process CPU clock, plus the wall time spent in the hooks themselves. */
struct TraceHooks {
    explicit TraceHooks(bool enabled) : on(enabled) {}

    bool on;
    double ms = 0;
    KernelTotals begin;
    double cpu_begin = 0;

    void
    start()
    {
        if (!on) return;
        auto t0 = Clock::now();
        begin = kernel_totals();
        cpu_begin = process_cpu_s();
        ms += ms_since(t0);
    }

    /** Kernel deltas and process CPU seconds since start(). */
    std::pair<KernelTotals, double>
    stop()
    {
        if (!on) return {};
        auto t0 = Clock::now();
        double cpu = process_cpu_s() - cpu_begin;
        KernelTotals end = kernel_totals();
        for (auto &[k, v] : end.seconds) v -= begin.seconds[k];
        for (auto &[k, v] : end.modmuls) v -= begin.modmuls[k];
        ms += ms_since(t0);
        return {end, cpu};
    }
};

/** Exact-counter bookkeeping: the same key must always carry the same
 * value within a run (and run.py compares runs with one seed). */
void
exact_once(Report &rep, const std::string &key, uint64_t value)
{
    auto [it, inserted] = rep.exact.emplace(key, value);
    if (!inserted && it->second != value) {
        rep.error(key + " differs between requests: " +
                  std::to_string(it->second) + " vs " +
                  std::to_string(value));
    }
}

/**
 * setup_s from repeated set-ups, in ms. The first repetition is the
 * first prover work in the process, so it alone pays process-wide lazy
 * initialisation (pool spin-up, static constants and tables). setup_s
 * is the median of the later, warm repetitions plus the first one's
 * excess over that median, so that one-time work is charged once.
 */
double
setup_seconds(const std::vector<double> &reps_ms)
{
    std::vector<double> warm(reps_ms.begin() + 1, reps_ms.end());
    const double m = median(warm);
    std::printf("setup: cold %.1f ms, warm median %.1f ms\n", reps_ms[0], m);
    return (m + std::max(0.0, reps_ms[0] - m)) / 1e3;
}

/** End-to-end metrics of a workload's timed phase. Open-loop requests
 * are timed from their due time, closed-loop ones from their submit
 * time. */
void
traffic_e2e(Report &rep, const std::vector<Sample> &samples, bool open_loop,
            Clock::time_point t0, double setup_s, double peak_mb)
{
    std::vector<double> prove_ms, bytes;
    Clock::time_point last = t0;
    for (const auto &s : samples) {
        if (s.verify || !s.answered || !s.resp.ok()) continue;
        prove_ms.push_back(open_loop ? s.from_due_ms() : s.service_ms());
        bytes.push_back(double(s.resp.proof.size()));
        last = std::max(last, s.done());
    }
    double span_s = std::max(1e-9, ms_between(t0, last) / 1e3);
    rep.set("setup_s", setup_s, "s");
    rep.set("prove_p50_ms", quantile(prove_ms, 0.5), "ms");
    rep.set("prove_p90_ms", quantile(prove_ms, 0.9), "ms");
    rep.set("proofs_per_s", double(prove_ms.size()) / span_s, "1/s");
    rep.set("proof_bytes", mean(bytes), "bytes");
    rep.set("peak_rss_mb", peak_mb, "MB");
    std::printf("samples: %zu PROVE\n", prove_ms.size());
}

/** Key-cache counts between two stats snapshots. */
runtime::KeyCacheStats
cache_delta(const runtime::KeyCacheStats &a, const runtime::KeyCacheStats &b)
{
    return {b.hits - a.hits, b.misses - a.misses, b.evictions - a.evictions};
}

/** What the traced run's per-layer rows read from one workload. */
struct Traffic {
    /** Every timed request. PROVE entries carry queue wait, active time
     * and modmuls in `resp.metrics`; VERIFY entries their active time. */
    const std::vector<Sample> *timed = nullptr;
    /** VERIFY jobs the verify rows read (flush, batch size, window). */
    const std::vector<Sample> *verify_jobs = nullptr;
    double elapsed_ms = 0;
    /** Concurrent provers and the kernel threads each may use. */
    size_t workers = 1;
    size_t worker_budget = kKernelThreads;
    double key_cache_hit_ratio = 0;
    /** Process CPU seconds over `cpu_wall_s` seconds of proving. */
    double cpu_s = 0;
    double cpu_wall_s = 0;
    /** Wall time spent inside the trace hooks. */
    double hook_ms = 0;
};

/** Per-layer ff / runtime / verify / driver / hyperplonk rows of a
 * workload's traffic, then the direct-call sweep of `in`. */
void
traffic_layers(Report &rep, const Traffic &t, LayerInputs &in)
{
    std::vector<double> queue, active, late;
    double busy = 0, muls_fr = 0, muls_fq = 0;
    uint64_t proofs = 0, ok = 0;
    for (const auto &s : *t.timed) {
        late.push_back(ms_between(s.due, s.submit));
        if (!s.answered || !s.resp.ok()) continue;
        ++ok;
        const auto &m = s.resp.metrics;
        busy += m.prove_ms;
        if (s.verify) continue;
        queue.push_back(m.queue_ms);
        active.push_back(m.prove_ms);
        muls_fr += double(m.modmul_fr);
        muls_fq += double(m.modmul_fq);
        ++proofs;
    }
    std::vector<double> flush, batch, window;
    for (const auto &s : *t.verify_jobs) {
        if (!s.verify || !s.answered || !s.resp.ok()) continue;
        const auto &m = s.resp.metrics;
        flush.push_back(m.verify_ms);
        batch.push_back(double(m.batch_size));
        window.push_back(m.total_ms - m.queue_ms - m.prove_ms - m.verify_ms);
    }
    const double n_timed = double(t.timed->size());
    const double n = double(std::max<uint64_t>(1, proofs));
    const double elapsed_s = t.elapsed_ms / 1e3;
    rep.set("ff.modmul_fr_per_proof", muls_fr / n, "count");
    rep.set("ff.modmul_fq_per_proof", muls_fq / n, "count");
    rep.set("runtime.queue_wait_p50_ms", quantile(queue, 0.5), "ms");
    rep.set("runtime.queue_wait_p95_ms", quantile(queue, 0.95), "ms");
    rep.set("runtime.active_p50_ms", quantile(active, 0.5), "ms");
    rep.set("runtime.key_cache_hit_ratio", t.key_cache_hit_ratio, "ratio");
    rep.set("runtime.worker_busy_ratio",
            busy / (double(t.workers) * t.elapsed_ms), "ratio");
    rep.set("verify.flush_p50_ms", quantile(flush, 0.5), "ms");
    rep.set("verify.batch_size_mean", mean(batch), "count");
    rep.set("verify.window_wait_p50_ms", quantile(window, 0.5), "ms");
    rep.set("driver.late_p99_ms", quantile(late, 0.99), "ms");
    rep.set("driver.offered_qps", n_timed / elapsed_s, "1/s");
    rep.set("driver.achieved_qps", double(ok) / elapsed_s, "1/s");
    rep.set("driver.failed_ratio",
            (n_timed - double(ok)) / std::max(1.0, n_timed), "ratio");
    rep.set("hyperplonk.parallel_efficiency",
            t.cpu_s / (t.cpu_wall_s *
                       double(t.workers * t.worker_budget)),
            "ratio");
    rep.set("trace.overhead_pct", 100.0 * t.hook_ms / t.elapsed_ms, "%");

    in.kernel_proofs = proofs;
    layer_sweep(in, rep);
    // Share of the provers' thread time a modmul-only model explains.
    double active_sum = 0;
    for (double a : active) active_sum += a;
    double model_ns = muls_fr * rep.metrics["ff.fr_mul_ns"].first +
                      muls_fq * rep.metrics["ff.fq_mul_ns"].first;
    rep.set("hyperplonk.modmul_bound_ratio",
            model_ns / (active_sum * 1e6 * double(t.worker_budget)),
            "ratio");
}

/** `workers` proof workers sharing the fixed kernel-thread budget, with
 * proof_server's queue capacity; every other knob at its default. */
runtime::ServiceConfig
service_config(size_t workers)
{
    runtime::ServiceConfig cfg;
    cfg.num_workers = workers;
    cfg.total_parallelism = kKernelThreads;
    cfg.queue_capacity = 32;
    return cfg;
}

}  // namespace

// ---------------------------------------------------------------------
// prove-2p16
// ---------------------------------------------------------------------

void
run_prove_2p16(const Options &opt, Report &rep)
{
    constexpr size_t kMu = 16;
    constexpr int kSetupReps = 3;
    ff::WorkerBudgetScope budget(kKernelThreads);

    std::mt19937_64 rng(derive(opt.seed, 1));
    auto [circuit, witness] = hyperplonk::random_circuit(kMu, rng);
    const std::vector<ff::Fr> publics = witness.public_inputs(circuit);
    const uint64_t srs_seed = derive(opt.seed, 2);

    // Set-up: SRS, keygen, one untimed prove + verify (first proof at
    // this size: pool spin-up, GLV constants, first touch of the SRS).
    std::vector<double> setup_ms, srs_ms, keygen_ms;
    std::shared_ptr<const pcs::Srs> srs;
    std::unique_ptr<hyperplonk::ProvingKey> pk;
    std::unique_ptr<hyperplonk::VerifyingKey> vk;
    std::vector<uint8_t> ref_bytes;
    for (int r = 0; r < kSetupReps; ++r) {
        pk.reset();
        vk.reset();
        srs.reset();
        auto t0 = Clock::now();
        std::mt19937_64 srs_rng(srs_seed);
        srs = std::make_shared<pcs::Srs>(
            pcs::Srs::generate(kMu, srs_rng, /*keep_trapdoor=*/false));
        auto t1 = Clock::now();
        auto keys = hyperplonk::keygen(circuit, srs);
        auto t2 = Clock::now();
        pk = std::make_unique<hyperplonk::ProvingKey>(std::move(keys.first));
        vk = std::make_unique<hyperplonk::VerifyingKey>(
            std::move(keys.second));
        hyperplonk::Proof warm = hyperplonk::prove(*pk, witness);
        bool ok = hyperplonk::verify(*vk, publics, warm,
                                     PcsCheckMode::pairing);
        setup_ms.push_back(ms_since(t0));
        srs_ms.push_back(ms_between(t0, t1));
        keygen_ms.push_back(ms_between(t1, t2));
        auto bytes = hyperplonk::serde::serialize_proof(warm);
        if (!ok) rep.error("warm-up proof failed pairing verification");
        if (r > 0 && bytes != ref_bytes) {
            rep.error("set-up repetitions produced different proofs");
        }
        ref_bytes = std::move(bytes);
        std::printf("setup %d: %.1f ms (srs %.1f, keygen %.1f)\n", r,
                    setup_ms.back(), srs_ms.back(), keygen_ms.back());
    }

    // Timed phase: closed loop, next request due when the last returns.
    // Each iteration is recorded as a PROVE request and a VERIFY request
    // (the pairing verify of that proof), in the service's terms.
    TraceHooks hooks(opt.trace);
    std::vector<Sample> samples;
    double cpu_s = 0, prove_wall_s = 0;
    const auto t_start = Clock::now();
    const auto deadline =
        t_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(opt.seconds));
    auto due = t_start;
    hooks.start();
    while (Clock::now() < deadline) {
        auto t0 = Clock::now();
        double cpu0 = 0;
        if (opt.trace) {
            auto h0 = Clock::now();
            cpu0 = process_cpu_s();
            hooks.ms += ms_since(h0);
        }
        ff::ModmulScope scope;
        hyperplonk::Proof proof = hyperplonk::prove(*pk, witness);
        auto t1 = Clock::now();
        uint64_t fr = scope.fr_delta(), fq = scope.fq_delta();
        if (opt.trace) {
            auto h0 = Clock::now();
            cpu_s += process_cpu_s() - cpu0;
            prove_wall_s += ms_between(t0, t1) / 1e3;
            hooks.ms += ms_since(h0);
        }
        bool ok = hyperplonk::verify(*vk, publics, proof,
                                     PcsCheckMode::pairing);
        auto t2 = Clock::now();
        auto bytes = hyperplonk::serde::serialize_proof(proof);
        ++rep.attempted;
        if (!ok) rep.error("timed proof failed pairing verification");
        if (bytes != ref_bytes) rep.error("timed proof bytes changed");
        if (!ok || bytes != ref_bytes) ++rep.failed;
        exact_once(rep, "modmul_fr_per_proof", fr);
        exact_once(rep, "modmul_fq_per_proof", fq);

        const auto status = ok && bytes == ref_bytes
                                 ? runtime::JobStatus::ok
                                 : runtime::JobStatus::internal_error;
        Sample p;
        p.due = due;
        p.submit = t0;
        p.answered = true;
        p.resp.status = status;
        p.resp.proof = std::move(bytes);
        p.resp.metrics.queue_ms = ms_between(due, t0);
        p.resp.metrics.prove_ms = p.resp.metrics.total_ms = ms_between(t0, t1);
        p.resp.metrics.modmul_fr = fr;
        p.resp.metrics.modmul_fq = fq;
        Sample v;
        v.verify = true;
        v.due = v.submit = t1;
        v.answered = true;
        v.resp.status = status;
        v.resp.metrics.prove_ms = v.resp.metrics.total_ms = ms_between(t1, t2);
        samples.push_back(std::move(p));
        samples.push_back(std::move(v));
        due = t2;
    }
    auto traced = hooks.stop();
    const double peak_mb = peak_rss_mb();
    const double elapsed_ms = ms_between(t_start, due);
    exact_once(rep, "proof_bytes", ref_bytes.size());

    if (!opt.trace) {
        traffic_e2e(rep, samples, /*open_loop=*/false, t_start,
                    setup_seconds(setup_ms), peak_mb);
        return;
    }

    // Traced run. The library loop has no queue, key cache or batch
    // window: queue wait is the due -> prove() gap and the key is held
    // (hit ratio 1). The verify rows fold the timed proofs through
    // BatchVerifier, a second verifier that must agree with the pairing
    // verdicts above; each proof's window is its wait for the flush.
    std::vector<Sample> folded;
    {
        verifier::BatchVerifier batch;
        std::vector<Clock::time_point> parked;
        for (const auto &s : samples) {
            if (s.verify || !s.resp.ok()) continue;
            auto p = hyperplonk::serde::deserialize_proof(s.resp.proof);
            verifier::PairingAccumulator acc;
            if (!p || !hyperplonk::verify_deferred(*vk, publics, *p, acc)) {
                rep.error("deferred verification rejected a timed proof");
            }
            batch.add(std::move(acc));
            parked.push_back(Clock::now());
        }
        auto f0 = Clock::now();
        auto result = batch.flush();
        const double flush_ms = ms_since(f0);
        if (!result.all_ok()) rep.error("batch flush rejected a proof");
        for (auto t : parked) {
            Sample v;
            v.verify = true;
            v.answered = true;
            v.resp.status = runtime::JobStatus::ok;
            v.resp.metrics.verify_ms = flush_ms;
            v.resp.metrics.batch_size = uint32_t(parked.size());
            v.resp.metrics.total_ms = ms_between(t, f0) + flush_ms;
            folded.push_back(std::move(v));
        }
    }

    auto frame = runtime::wire::encode_request(
        runtime::JobRequest{1, circuit, witness});
    LayerInputs in;
    in.num_vars = kMu;
    in.srs = srs;
    in.circuit = &circuit;
    in.witness = &witness;
    in.frames = {&frame};
    in.kernels = traced.first;
    in.srs_generate_ms = median(srs_ms);
    in.keygen_ms = median(keygen_ms);
    traffic_layers(rep,
                   Traffic{.timed = &samples,
                           .verify_jobs = &folded,
                           .elapsed_ms = elapsed_ms,
                           .key_cache_hit_ratio = 1.0,
                           .cpu_s = cpu_s,
                           .cpu_wall_s = prove_wall_s,
                           .hook_ms = hooks.ms},
                   in);
}

// ---------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------

void
run_serve_mixed(const Options &opt, Report &rep)
{
    constexpr size_t kMu = 10;
    constexpr size_t kWorkers = 4;
    constexpr size_t kInstances = 2;
    // Each set-up is ~1 s of 12 parallel 2^10 keygens + proofs, whose
    // run-to-run spread is large; ten repetitions steady the median.
    constexpr int kSetupReps = 10;
    // Total arrivals per second, half of them VERIFY: about half the
    // mixed saturation of this configuration (~29 req/s measured on the
    // 4-vCPU host, ~20 req/s in its slow phases). 12 req/s x 36 s gives
    // 216 samples per class, 21 of them beyond p90.
    constexpr double kRate = 12.0;
    const std::vector<std::string> families = {
        "rollup",           "rescue-chain",      "merkle-membership",
        "range-via-lookup", "xor-rescue-lookup", "table3-zcash"};

    // Inputs: per family and instance a PROVE frame. The reference proof
    // the service must reproduce byte for byte, and a VERIFY frame
    // carrying it, are built during the first set-up (see below).
    ff::WorkerBudgetScope budget(kKernelThreads);
    struct Input {
        std::string name;
        scenarios::Instance inst;
        std::vector<uint8_t> prove_frame, verify_frame, proof, vk;
        std::vector<ff::Fr> publics;
    };
    std::vector<Input> inputs;
    for (size_t f = 0; f < families.size(); ++f) {
        for (size_t i = 0; i < kInstances; ++i) {
            Input in;
            scenarios::Spec spec;
            spec.name = families[f];
            spec.log_size = kMu;
            spec.seed = derive(opt.seed, 100 + f * kInstances + i);
            in.name = families[f] + "." + std::to_string(i);
            in.inst = scenarios::Registry::global().build(spec);
            if (in.inst.circuit.num_vars != kMu || in.inst.adversarial()) {
                throw std::runtime_error(in.name + " is not an honest 2^10 "
                                         "circuit");
            }
            in.publics = in.inst.witness.public_inputs(in.inst.circuit);
            in.prove_frame = runtime::wire::encode_request(runtime::JobRequest{
                inputs.size() + 1, in.inst.circuit, in.inst.witness});
            inputs.push_back(std::move(in));
        }
    }
    // References from a local key cache on the service's default SRS
    // seed, so keys and proofs are identical to the service's.
    runtime::KeyCache local(inputs.size());
    auto build_references = [&] {
        for (size_t i = 0; i < inputs.size(); ++i) {
            Input &in = inputs[i];
            auto keys = local.get_or_create(in.inst.circuit).first;
            in.proof = hyperplonk::serde::serialize_proof(
                hyperplonk::prove(*keys.pk, in.inst.witness));
            in.vk = hyperplonk::serde::serialize_verifying_key(*keys.vk);
            in.verify_frame = runtime::wire::encode_verify_request(
                runtime::VerifyRequest{i + 1, in.vk, in.publics, in.proof});
        }
    };

    // Schedule: a Poisson process conditioned on exactly N arrivals in
    // [0, seconds), with the PROVE/VERIFY split and the family mix
    // exactly balanced and shuffled, so every seed offers the same work.
    std::mt19937_64 rng(derive(opt.seed, 3));
    const size_t n = size_t(kRate * opt.seconds + 0.5);
    std::vector<double> at_ms(n);
    for (auto &t : at_ms) t = uniform01(rng) * opt.seconds * 1e3;
    std::sort(at_ms.begin(), at_ms.end());
    std::vector<Sample> samples(n);
    for (size_t j = 0; j < n; ++j) {
        samples[j].verify = (j / families.size()) % 2 == 1;
        samples[j].input = (j % families.size()) * kInstances +
                           (j / (2 * families.size())) % kInstances;
    }
    for (size_t j = n; j > 1; --j) {
        size_t k = size_t(uniform01(rng) * double(j));
        std::swap(samples[j - 1], samples[k]);
    }

    // Set-up: service start, SRS + keygen through the cache fill (one
    // PROVE per input), one VERIFY warm-up. The first repetition is the
    // process's first prover work; its clock is paused while the
    // references are built, after the cache fill and before the VERIFY
    // warm-up that needs one of them.
    std::vector<double> setup_ms;
    std::unique_ptr<runtime::ProofService> svc;
    for (int r = 0; r < kSetupReps; ++r) {
        svc.reset();
        auto t0 = Clock::now();
        svc = std::make_unique<runtime::ProofService>(
            service_config(kWorkers));
        std::vector<std::future<JobResponse>> warm;
        for (const auto &in : inputs) warm.push_back(svc->submit(in.prove_frame));
        std::vector<JobResponse> resps;
        for (auto &f : warm) resps.push_back(f.get());
        double ms = ms_since(t0);
        if (r == 0) build_references();
        for (size_t i = 0; i < resps.size(); ++i) {
            if (!resps[i].ok() || resps[i].proof != inputs[i].proof) {
                rep.error(inputs[i].name + ": warm-up proof differs from "
                          "the reference");
            }
        }
        auto t1 = Clock::now();
        if (!svc->submit(inputs[0].verify_frame).get().ok()) {
            rep.error("warm-up VERIFY rejected an honest proof");
        }
        setup_ms.push_back(ms + ms_since(t1));
        std::printf("setup %d: %.1f ms\n", r, setup_ms.back());
    }

    // Timed phase: one submit thread (this one) and one collector.
    const runtime::KeyCacheStats cache0 = svc->cache_stats();
    TraceHooks hooks(opt.trace);
    hooks.start();
    const auto t_start = Clock::now();
    {
        Collector collector(samples);
        for (size_t j = 0; j < n; ++j) {
            Sample &s = samples[j];
            const Input &in = inputs[s.input];
            std::vector<uint8_t> frame =
                s.verify ? in.verify_frame : in.prove_frame;
            s.due = t_start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(
                                      at_ms[j]));
            std::this_thread::sleep_until(s.due);
            s.submit = Clock::now();
            auto f = svc->try_submit(std::move(frame));
            if (!f) {
                s.shed = true;
                continue;
            }
            collector.add(j, std::move(*f));
        }
        collector.finish();
    }
    Clock::time_point last = t_start;
    for (const auto &s : samples) {
        if (s.answered) last = std::max(last, s.done());
    }
    auto traced = hooks.stop();
    const double elapsed_ms = ms_between(t_start, last);
    const double peak_mb = peak_rss_mb();
    const runtime::KeyCacheStats cache =
        cache_delta(cache0, svc->cache_stats());

    // Checks: every PROVE reproduces its reference proof, every VERIFY
    // accepts, every PROVE hit the warm cache.
    uint64_t prove_ok = 0;
    for (const auto &s : samples) {
        ++rep.attempted;
        const Input &in = inputs[s.input];
        if (s.shed) {
            ++rep.failed;
            continue;
        }
        if (!s.resp.ok()) {
            ++rep.failed;
            rep.error(in.name + (s.verify ? " VERIFY" : " PROVE") +
                      " failed: " + s.resp.error);
            continue;
        }
        if (s.verify) continue;
        ++prove_ok;
        if (s.resp.proof != in.proof) {
            ++rep.failed;
            rep.error(in.name + ": served proof differs from the reference");
        }
        exact_once(rep, "modmul_fr." + in.name, s.resp.metrics.modmul_fr);
        exact_once(rep, "modmul_fq." + in.name, s.resp.metrics.modmul_fq);
        exact_once(rep, "proof_bytes." + in.name, s.resp.proof.size());
    }
    if (cache.hits != prove_ok || cache.misses != 0) {
        rep.error("key cache: " + std::to_string(cache.hits) + " hits, " +
                  std::to_string(cache.misses) + " misses for " +
                  std::to_string(prove_ok) + " warm PROVE jobs");
    }
    exact_once(rep, "arrivals", n);
    size_t n_verify = 0;
    for (const auto &s : samples) n_verify += s.verify ? 1 : 0;
    exact_once(rep, "verify_arrivals", n_verify);
    // Every served proof equals its reference, so this verifies each
    // distinct served proof directly.
    for (const auto &in : inputs) {
        if (!pairing_verify(in.vk, in.publics, in.proof)) {
            rep.error(in.name + ": served proof fails direct verify");
        }
    }
    svc->shutdown();

    if (!opt.trace) {
        traffic_e2e(rep, samples, /*open_loop=*/true, t_start,
                    setup_seconds(setup_ms), peak_mb);
        return;
    }
    LayerInputs lin;
    lin.num_vars = kMu;
    lin.srs = local.srs_for(kMu);
    lin.circuit = &inputs[0].inst.circuit;
    lin.witness = &inputs[0].inst.witness;
    for (const auto &in : inputs) lin.frames.push_back(&in.prove_frame);
    lin.kernels = traced.first;
    traffic_layers(rep,
                   Traffic{.timed = &samples,
                           .verify_jobs = &samples,
                           .elapsed_ms = elapsed_ms,
                           .workers = kWorkers,
                           .worker_budget = svc->worker_budget(),
                           .key_cache_hit_ratio = cache.hit_rate(),
                           .cpu_s = traced.second,
                           .cpu_wall_s = elapsed_ms / 1e3,
                           .hook_ms = hooks.ms},
                   lin);
}

// ---------------------------------------------------------------------
// serve-cold
// ---------------------------------------------------------------------

void
run_serve_cold(const Options &opt, Report &rep)
{
    constexpr size_t kMu = 14;
    constexpr size_t kWorkers = 2;
    constexpr size_t kOutstanding = 4;
    // Distinct circuits cycled through: enough more than the cache's 16
    // keys that LRU has evicted each key before its circuit comes round
    // again, even with jobs finishing out of order (17 is too few).
    constexpr size_t kPool = 20;
    constexpr int kSetupReps = 3;

    // Inputs: kPool timed circuits plus one warm-up circuit, as frames.
    std::vector<std::vector<uint8_t>> frames;
    std::vector<std::vector<ff::Fr>> publics;
    for (size_t i = 0; i <= kPool; ++i) {
        std::mt19937_64 rng(derive(opt.seed, 1000 + i));
        auto [circuit, witness] = hyperplonk::random_circuit(kMu, rng);
        publics.push_back(witness.public_inputs(circuit));
        frames.push_back(runtime::wire::encode_request(
            runtime::JobRequest{i + 1, circuit, witness}));
    }
    const auto &warm_frame = frames[kPool];

    // Set-up: service start, SRS at this size, one cold warm-up job.
    std::vector<double> setup_ms;
    std::unique_ptr<runtime::ProofService> svc;
    for (int r = 0; r < kSetupReps; ++r) {
        svc.reset();
        auto t0 = Clock::now();
        svc = std::make_unique<runtime::ProofService>(
            service_config(kWorkers));
        if (!svc->submit(warm_frame).get().ok()) {
            rep.error("warm-up PROVE failed");
        }
        setup_ms.push_back(ms_since(t0));
        std::printf("setup %d: %.1f ms\n", r, setup_ms.back());
    }

    // Timed phase: closed loop keeping kOutstanding jobs in flight.
    const runtime::KeyCacheStats cache0 = svc->cache_stats();
    TraceHooks hooks(opt.trace);
    hooks.start();
    // Presized: the collector writes into slots while this thread
    // submits, so the vector must never reallocate.
    std::vector<Sample> samples(size_t(opt.seconds * 20) + 64);
    size_t used = 0;
    const auto t_start = Clock::now();
    const auto deadline =
        t_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(opt.seconds));
    {
        Collector collector(samples);
        for (; used < samples.size() && Clock::now() < deadline; ++used) {
            std::vector<uint8_t> frame = frames[used % kPool];
            Clock::time_point due = collector.acquire_slot(kOutstanding);
            if (Clock::now() >= deadline) break;
            Sample &s = samples[used];
            s.input = used % kPool;
            s.due = due;
            s.submit = Clock::now();
            collector.add(used, svc->submit(std::move(frame)));
        }
        collector.finish();
    }
    samples.resize(used);
    auto traced = hooks.stop();
    Clock::time_point last = t_start;
    for (const auto &s : samples) {
        if (s.answered) last = std::max(last, s.done());
    }
    const double elapsed_ms = ms_between(t_start, last);
    const double peak_mb = peak_rss_mb();
    const runtime::KeyCacheStats cache =
        cache_delta(cache0, svc->cache_stats());

    // Checks: every job ok, one proof per circuit, every job a miss.
    std::vector<std::vector<uint8_t>> proof_of(kPool);
    uint64_t ok = 0;
    for (const auto &s : samples) {
        ++rep.attempted;
        const std::string name = "circuit." + std::to_string(s.input);
        if (!s.answered || !s.resp.ok()) {
            ++rep.failed;
            rep.error(name + " PROVE failed: " + s.resp.error);
            continue;
        }
        ++ok;
        auto &ref = proof_of[s.input];
        if (ref.empty()) ref = s.resp.proof;
        if (s.resp.proof != ref) {
            ++rep.failed;
            rep.error(name + ": proofs of one circuit differ");
        }
        if (s.resp.metrics.key_cache_hit) {
            rep.error(name + ": unexpected key-cache hit");
        }
        exact_once(rep, "modmul_fr." + name, s.resp.metrics.modmul_fr);
        exact_once(rep, "modmul_fq." + name, s.resp.metrics.modmul_fq);
        exact_once(rep, "proof_bytes." + name, s.resp.proof.size());
    }
    if (cache.hits != 0 || cache.misses != ok) {
        rep.error("key cache: " + std::to_string(cache.hits) + " hits, " +
                  std::to_string(cache.misses) + " misses for " +
                  std::to_string(ok) + " cold PROVE jobs");
    }

    // Output checks, after the timed phase. Each distinct proof gets a
    // direct pairing verify and then goes through the service's VERIFY
    // path, in a closed loop of the same depth, which feeds the traced
    // run's verify-layer figures. The keys come from a local cache on
    // the service's default SRS seed.
    std::vector<Sample> vsamples;
    {
        ff::WorkerBudgetScope budget(kKernelThreads);
        runtime::KeyCache local(kPool);
        std::vector<std::vector<uint8_t>> vframes;
        std::vector<size_t> vinput;
        for (size_t i = 0; i < kPool; ++i) {
            if (proof_of[i].empty()) continue;
            auto req = runtime::wire::decode_request(frames[i]);
            auto keys = local.get_or_create(req->circuit).first;
            auto vk = hyperplonk::serde::serialize_verifying_key(*keys.vk);
            if (!pairing_verify(vk, publics[i], proof_of[i])) {
                rep.error("circuit." + std::to_string(i) +
                          ": proof fails direct verify");
            }
            vframes.push_back(runtime::wire::encode_verify_request(
                runtime::VerifyRequest{i + 1, vk, publics[i], proof_of[i]}));
            vinput.push_back(i);
        }
        if (vframes.empty()) rep.error("no proof completed in the timed phase");
        vsamples.resize(vframes.size());
        Collector collector(vsamples);
        for (size_t j = 0; j < vframes.size(); ++j) {
            Sample &s = vsamples[j];
            s.due = collector.acquire_slot(kOutstanding);
            s.input = vinput[j];
            s.verify = true;
            s.submit = Clock::now();
            collector.add(j, svc->submit(std::move(vframes[j])));
        }
        collector.finish();
        for (const auto &s : vsamples) {
            if (!s.resp.ok()) {
                rep.error("circuit." + std::to_string(s.input) +
                          ": VERIFY rejected an honest proof: " +
                          s.resp.error);
            }
        }
    }
    svc->shutdown();

    if (!opt.trace) {
        traffic_e2e(rep, samples, /*open_loop=*/false, t_start,
                    setup_seconds(setup_ms), peak_mb);
        return;
    }
    auto req = runtime::wire::decode_request(frames[0]);
    runtime::KeyCache local(1);
    LayerInputs lin;
    lin.num_vars = kMu;
    lin.srs = local.srs_for(kMu);
    lin.circuit = &req->circuit;
    lin.witness = &req->witness;
    for (size_t i = 0; i < 4; ++i) lin.frames.push_back(&frames[i]);
    lin.kernels = traced.first;
    traffic_layers(rep,
                   Traffic{.timed = &samples,
                           .verify_jobs = &vsamples,
                           .elapsed_ms = elapsed_ms,
                           .workers = kWorkers,
                           .worker_budget = svc->worker_budget(),
                           .key_cache_hit_ratio = cache.hit_rate(),
                           .cpu_s = traced.second,
                           .cpu_wall_s = elapsed_ms / 1e3,
                           .hook_ms = hooks.ms},
                   lin);
}

}  // namespace perfbench
