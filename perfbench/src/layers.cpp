/**
 * @file
 * Measurement helpers and the traced run's per-layer sweep.
 *
 * The sweep times direct calls into each layer's public functions from
 * this file (no span is added inside the library), on the material the
 * workload itself used wherever the layer sits on its request path.
 * Each timing is the median of a few repetitions.
 */
#include <sys/resource.h>
#include <time.h>

#include <cctype>
#include <cstdio>
#include <functional>
#include <random>

#include "common.hpp"
#include "ff/batch_inverse.hpp"
#include "ff/fq.hpp"
#include "ff/fr.hpp"
#include "ff/parallel.hpp"
#include "hyperplonk/sumcheck.hpp"
#include "obs/metrics.hpp"
#include "runtime/key_cache.hpp"
#include "runtime/wire.hpp"
#include "scenarios/registry.hpp"

namespace perfbench {

using namespace zkspeed;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - double(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
process_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

const std::vector<std::string> &
kernel_names()
{
    static const std::vector<std::string> names = {
        "Witness MSMs",       "Build MLE",          "ZeroCheck Rounds",
        "All MLE Updates",    "Wire Identity MSMs", "Construct N & D",
        "Fraction MLE",       "Product MLE",        "PermCheck Rounds",
        "LookupCheck Rounds", "Batch Evaluations",  "Linear Combine",
        "OpenCheck Rounds",   "Poly Open MSMs"};
    return names;
}

std::string
kernel_slug(const std::string &kernel)
{
    std::string out;
    for (char c : kernel) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            out += char(std::tolower(static_cast<unsigned char>(c)));
        } else if (!out.empty() && out.back() != '_') {
            out += '_';
        }
    }
    while (!out.empty() && out.back() == '_') out.pop_back();
    return out;
}

KernelTotals
kernel_totals()
{
    KernelTotals t;
    auto snap = obs::MetricsRegistry::global().snapshot();
    for (const auto &m : snap.metrics) {
        const std::string *kernel = nullptr;
        for (const auto &[k, v] : m.labels) {
            if (k == "kernel") kernel = &v;
        }
        if (kernel == nullptr) continue;
        if (m.name == "zkspeed_prover_kernel_seconds") {
            t.seconds[*kernel] += m.hist.sum;
        } else if (m.name == "zkspeed_prover_kernel_modmuls_total") {
            t.modmuls[*kernel] += m.counter;
        }
    }
    return t;
}

void
Report::error(const std::string &what)
{
    std::printf("CHECK FAILED: %s\n", what.c_str());
    correct = false;
}

HostProbe
host_probe()
{
    HostProbe p;
    // Register-only: a dependent xorshift-multiply chain.
    auto t0 = Clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 16'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x *= 0x2545f4914f6cdd1dULL;
    }
    p.cpu_ms = ms_since(t0);

    // DRAM-bound: a dependent random walk over 64 MiB.
    constexpr size_t kWords = size_t(1) << 24;  // 16 Mi x 4 B
    std::vector<uint32_t> buf(kWords);
    uint32_t s = 0x12345678u;
    for (auto &w : buf) {
        s ^= s << 13;
        s ^= s >> 17;
        s ^= s << 5;
        w = s;
    }
    t0 = Clock::now();
    uint32_t idx = 0;
    for (int i = 0; i < 500'000; ++i) {
        idx = (buf[idx] ^ uint32_t(i)) & uint32_t(kWords - 1);
    }
    p.mem_ms = ms_since(t0);
    volatile uint64_t sink = x + idx;
    (void)sink;
    return p;
}

namespace {

/** Median wall ms of `reps` calls. */
double
median_ms(int reps, const std::function<void()> &fn)
{
    std::vector<double> v;
    for (int i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        fn();
        v.push_back(ms_since(t0));
    }
    return median(v);
}

template <typename F>
double
mul_chain_ns(std::mt19937_64 &rng)
{
    constexpr int kChain = 1 << 20;
    F a = F::random(rng);
    const F b = F::random(rng);
    double ms = median_ms(5, [&] {
        for (int i = 0; i < kChain; ++i) a = a * b;
    });
    volatile uint64_t sink = a.mont_repr().limbs[0];
    (void)sink;
    return ms * 1e6 / kChain;
}

/** SRS + circuit material at one size: the workload's own when it has
 * that size, otherwise generated here. */
struct Material {
    std::shared_ptr<const pcs::Srs> srs;
    const hyperplonk::Witness *borrowed = nullptr;
    std::pair<hyperplonk::CircuitIndex, hyperplonk::Witness> owned;

    const hyperplonk::Witness &
    witness() const
    {
        return borrowed != nullptr ? *borrowed : owned.second;
    }
};

Material
material(const LayerInputs &in, size_t num_vars)
{
    Material m;
    if (in.num_vars == num_vars && in.srs && in.witness != nullptr) {
        m.srs = in.srs;
        m.borrowed = in.witness;
        return m;
    }
    std::mt19937_64 rng(0x5eed0000ULL + num_vars);
    m.srs = std::make_shared<pcs::Srs>(
        pcs::Srs::generate(num_vars, rng, /*keep_trapdoor=*/false));
    m.owned = hyperplonk::random_circuit(num_vars, rng);
    return m;
}

double
msm_ns_per_point(const Material &m, size_t num_vars)
{
    const auto &bases = m.srs->lagrange[num_vars];
    const auto &scalars = m.witness().w[0].evals();
    double ms = median_ms(3, [&] { (void)curve::msm(bases, scalars); });
    return ms * 1e6 / double(bases.size());
}

/** LookupCheck row from one range-via-lookup proof, for workloads whose
 * own circuits carry no lookup. */
std::pair<double, uint64_t>
lookup_probe()
{
    scenarios::Spec spec;
    spec.name = "range-via-lookup";
    spec.log_size = 10;
    spec.seed = 1;
    auto inst = scenarios::Registry::global().build(spec);
    runtime::KeyCache cache(1);
    auto keys = cache.get_or_create(inst.circuit).first;
    (void)hyperplonk::prove(*keys.pk, inst.witness);  // warm
    const std::string row = "LookupCheck Rounds";
    KernelTotals before = kernel_totals();
    (void)hyperplonk::prove(*keys.pk, inst.witness);
    KernelTotals after = kernel_totals();
    return {(after.seconds[row] - before.seconds[row]) * 1e3,
            after.modmuls[row] - before.modmuls[row]};
}

}  // namespace

void
layer_sweep(const LayerInputs &in, Report &rep)
{
    ff::WorkerBudgetScope budget(kKernelThreads);
    std::mt19937_64 rng(0x1a7e5ULL);

    // ff: dependent mul chains (cache-resident) and batch inversion.
    double fr_ns = mul_chain_ns<ff::Fr>(rng);
    double fq_ns = mul_chain_ns<ff::Fq>(rng);
    rep.set("ff.fr_mul_ns", fr_ns, "ns");
    rep.set("ff.fq_mul_ns", fq_ns, "ns");
    {
        std::vector<ff::Fr> xs(size_t(1) << 14);
        for (auto &x : xs) x = ff::Fr::random(rng);
        std::vector<ff::Fr> work;
        double ms = median_ms(5, [&] {
            work = xs;
            ff::batch_inverse(std::span<ff::Fr>(work));
        });
        rep.set("ff.batch_inv_ns", ms * 1e6 / double(xs.size()), "ns");
    }

    // curve + pcs + sumcheck at 2^16, curve at 2^10.
    {
        Material m16 = material(in, 16);
        rep.set("curve.msm_2p16_ns_per_point", msm_ns_per_point(m16, 16),
                "ns");
        const auto &poly = m16.witness().w[0];
        rep.set("pcs.commit_2p16_ms",
                median_ms(3, [&] { (void)pcs::commit(*m16.srs, poly); }),
                "ms");
        std::vector<ff::Fr> point(16);
        for (auto &p : point) p = ff::Fr::random(rng);
        rep.set("pcs.open_2p16_ms", median_ms(3, [&] {
                    (void)pcs::open(*m16.srs, poly, point);
                }),
                "ms");

        // A degree-3 product sumcheck over three 2^16 tables.
        mle::VirtualPolynomial vp(16);
        vp.add_product(ff::Fr::one(),
                       {std::make_shared<mle::Mle>(mle::Mle::random(16, rng)),
                        std::make_shared<mle::Mle>(mle::Mle::random(16, rng)),
                        std::make_shared<mle::Mle>(
                            mle::Mle::random(16, rng))});
        double ms = median_ms(3, [&] {
            hash::Transcript tr("perfbench-sumcheck");
            (void)hyperplonk::sumcheck_prove(vp, tr);
        });
        rep.set("sumcheck.deg3_ns_per_elem", ms * 1e6 / double(1 << 16),
                "ns");
    }
    {
        Material m10 = material(in, 10);
        rep.set("curve.msm_2p10_ns_per_point", msm_ns_per_point(m10, 10),
                "ns");
    }

    // Pairing: a product check of the workload's size, mu + 2 pairs
    // arranged to multiply to one.
    {
        const pcs::Srs &srs = *in.srs;
        const size_t pairs = (in.num_vars + 2) / 2;
        std::vector<curve::G1Affine> ps;
        std::vector<curve::G2Affine> qs;
        for (size_t i = 0; i < pairs; ++i) {
            const auto &p = srs.lagrange[in.num_vars][i];
            const auto &q = srs.tau_h[i % srs.tau_h.size()];
            ps.push_back(p);
            qs.push_back(q);
            ps.push_back(p.neg());
            qs.push_back(q);
        }
        bool ok = true;
        double ms = median_ms(5, [&] {
            ok = curve::pairing_product_is_one(ps, qs) && ok;
        });
        if (!ok) rep.error("pairing product check rejected an identity");
        rep.set("curve.pairing_check_ms", ms, "ms");
    }

    // Set-up components the workload did not time itself.
    double srs_ms = in.srs_generate_ms;
    if (srs_ms < 0) {
        srs_ms = median_ms(3, [&] {
            std::mt19937_64 r(7);
            (void)pcs::Srs::generate(in.num_vars, r, true);
        });
    }
    rep.set("pcs.srs_generate_ms", srs_ms, "ms");
    double keygen_ms = in.keygen_ms;
    if (keygen_ms < 0) {
        keygen_ms = median_ms(3, [&] {
            (void)hyperplonk::keygen(*in.circuit, in.srs);
        });
    }
    rep.set("hyperplonk.keygen_ms", keygen_ms, "ms");

    // runtime wire decode + fingerprint, per MB of the workload's frames.
    {
        double bytes = 0;
        for (const auto *f : in.frames) bytes += double(f->size());
        bool ok = true;
        std::vector<runtime::JobRequest> decoded(in.frames.size());
        double dec_ms = median_ms(3, [&] {
            for (size_t i = 0; i < in.frames.size(); ++i) {
                auto req = runtime::wire::decode_request(*in.frames[i]);
                ok = ok && req.has_value();
                if (req) decoded[i] = std::move(*req);
            }
        });
        double fp_ms = median_ms(3, [&] {
            for (const auto &req : decoded) {
                (void)runtime::circuit_fingerprint(req.circuit);
            }
        });
        if (!ok) rep.error("an encoded workload frame failed to decode");
        rep.set("runtime.decode_ms_per_mb", dec_ms / (bytes / 1e6), "ms/MB");
        rep.set("runtime.fingerprint_ms_per_mb", fp_ms / (bytes / 1e6),
                "ms/MB");
    }

    // Kernel rows: registry deltas over the workload's timed proofs.
    const double proofs = double(std::max<uint64_t>(1, in.kernel_proofs));
    for (const auto &k : kernel_names()) {
        auto s = in.kernels.seconds.find(k);
        auto mm = in.kernels.modmuls.find(k);
        double ms = s == in.kernels.seconds.end() ? 0 : s->second * 1e3;
        double muls = mm == in.kernels.modmuls.end() ? 0 : double(mm->second);
        ms /= proofs;
        muls /= proofs;
        if (k == "LookupCheck Rounds" && muls == 0) {
            auto [probe_ms, probe_muls] = lookup_probe();
            ms = probe_ms;
            muls = double(probe_muls);
        }
        rep.set("hyperplonk.kernel_ms." + kernel_slug(k), ms, "ms");
        rep.set("hyperplonk.kernel_modmuls." + kernel_slug(k), muls,
                "count");
    }
}

}  // namespace perfbench
