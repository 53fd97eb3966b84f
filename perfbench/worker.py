"""Benchmark worker: runs one workload's requests in a process of its own.

run.py starts it and checks every output it reports, so this process
holds meyerwave, the requests' inputs and outputs and nothing of the
checks, and its peak resident memory is the workload's own.

    python3 worker.py WORKLOAD SEED WORKDIR SPANS_PATH

Commands, one a line on standard input; each gets one JSON line back:

    pass LABEL    run every request once; reply with each request's
                  seconds and outcome
    trace LABEL   the same, inside spans (wrappers are installed at the
                  first trace command and stay)
    finish        reply with the peak RSS and, after traced passes, the
                  per-layer metrics; write the spans to SPANS_PATH; exit
"""

import json
import resource
import sys
import time

import tracing
import workloads


def run_pass(requests, tracer, label):
    seconds, outcomes = [], []
    for k, req in enumerate(requests):
        t0 = time.perf_counter()
        try:
            if tracer.enabled:
                returned = tracer.call(f"request.{req.name}", f"{label}.{k}",
                                       req.run)
            else:
                returned = req.run()
        except Exception as exc:   # a crash is a failed request
            seconds.append(time.perf_counter() - t0)
            outcomes.append({"raised": repr(exc)})
            continue
        seconds.append(time.perf_counter() - t0)
        tracer.enabled, traced = False, tracer.enabled
        outcomes.append(req.save(returned))
        tracer.enabled = traced
    return {"seconds": seconds, "outcomes": outcomes}


def main(argv):
    workload, seed, workdir, spans_path = argv[1:5]
    requests = workloads.WORKLOADS[workload](int(seed), workdir)
    tracer = tracing.Tracer()
    traced_seconds = []
    replies = sys.stdout
    sys.stdout = sys.stderr        # nothing else may write to the replies
    for line in sys.stdin:
        command, _, label = line.strip().partition(" ")
        if command == "finish":
            break
        if command == "trace" and not tracer.enabled:
            tracer.install()
            tracer.enabled = True
        if tracer.enabled:
            tracer.begin_pass()
        reply = run_pass(requests, tracer, label)
        if tracer.enabled:
            traced_seconds.append(sum(reply["seconds"]))
        print(json.dumps(reply), file=replies, flush=True)

    tracer.enabled = False
    done = {"peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if traced_seconds:
        done["layers"], done["mismatched"] = tracing.summarize(
            tracer, traced_seconds)
        tracing.write_spans(tracer, spans_path)
    print(json.dumps(done), file=replies, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
