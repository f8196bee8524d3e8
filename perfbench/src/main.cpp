/**
 * @file
 * perfbench: one end-to-end workload per invocation.
 *
 *   perfbench --workload <prove-2p16|serve-mixed|serve-cold>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * Prints progress lines, one `EXACT {...}` line with the counters that
 * must repeat across runs with one seed, and as the last line one JSON
 * object {correct, attempted, failed, metrics}. With --trace 0 the
 * metrics are the end-to-end ones; with --trace 1 the per-layer ones.
 * Exits 1 when any output fails its check.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "obs/jsonv.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;
using zkspeed::obs::jsonv::Value;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<prove-2p16|serve-mixed|serve-cold> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + key).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0') usage("--seed must be a whole number");
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 600) {
                usage("--seconds must be in (0, 600]");
            }
        } else if (key == "--trace") {
            if (val != "0" && val != "1") usage("--trace must be 0 or 1");
            opt.trace = val == "1";
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (!have_workload) usage("--workload is required");
    return opt;
}

}  // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);
    Report rep;

    perfbench::HostProbe before = perfbench::host_probe();
    try {
        if (opt.workload == "prove-2p16") {
            perfbench::run_prove_2p16(opt, rep);
        } else if (opt.workload == "serve-mixed") {
            perfbench::run_serve_mixed(opt, rep);
        } else if (opt.workload == "serve-cold") {
            perfbench::run_serve_cold(opt, rep);
        } else {
            usage(("unknown workload " + opt.workload).c_str());
        }
    } catch (const std::exception &e) {
        rep.error(std::string("exception: ") + e.what());
    }
    perfbench::HostProbe after = perfbench::host_probe();

    // The probes bracket the run so a slow run can be blamed on the
    // host; they are per-layer metrics, and printed in every run.
    double cpu_ms = (before.cpu_ms + after.cpu_ms) / 2;
    double mem_ms = (before.mem_ms + after.mem_ms) / 2;
    std::printf("host probe: cpu %.2f/%.2f ms, mem %.2f/%.2f ms\n",
                before.cpu_ms, after.cpu_ms, before.mem_ms, after.mem_ms);
    if (opt.trace) {
        rep.set("host.cpu_probe_ms", cpu_ms, "ms");
        rep.set("host.mem_probe_ms", mem_ms, "ms");
    }

    Value exact = Value::object();
    for (const auto &[k, v] : rep.exact) exact.set(k, Value::of(v));
    std::printf("EXACT %s\n", exact.render(-1).c_str());

    Value metrics = Value::object();
    for (const auto &[name, vu] : rep.metrics) {
        metrics.set(name, Value::object()
                              .set("value", Value::of(vu.first))
                              .set("unit", Value::of(vu.second)));
    }
    Value out = Value::object();
    out.set("correct", Value::of(rep.correct))
        .set("attempted", Value::of(rep.attempted))
        .set("failed", Value::of(rep.failed))
        .set("metrics", std::move(metrics));
    std::printf("%s\n", out.render(-1).c_str());
    std::fflush(stdout);
    return rep.correct ? 0 : 1;
}
