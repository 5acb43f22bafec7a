"""One benchmark run's worker process: a single client in a closed loop.

Started fresh for every run, with no threads.  It imports ``setcons`` from
the checkout's ``src`` directory, stamps the moment it is ready to issue
its first operation, then reads a job (JSON on stdin) and calls
``setcons.cli.main`` on one file after another until the time is up.  Each
operation's stdout is captured and hashed outside the timed region.  The
result goes to stdout as JSON.

A job may ask for ``probes``: the loop is then cut into that many blocks
plus one, and between two blocks the worker times a fresh start of itself
with ``--probe``, which only prints the ready stamp.  The set-up samples
are thus spread through the run, not bunched at its ends.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if not os.path.isfile(os.path.join(_SRC, "setcons", "__init__.py")):
    sys.exit(f"worker: no setcons sources under {_SRC}")
sys.path.insert(0, _SRC)

import setcons.cli  # noqa: E402  (the import is part of the measured set-up)

READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

TRACE_BLOCKS = 3  # untraced/traced block pairs in a traced run


def closed_loop(files, command, seconds, count, call, first=0):
    """Run operations back to back, cycling through ``files`` from index
    ``first``: for ``seconds`` when ``count`` is None, else exactly ``count``
    operations.  Returns per-operation records, the distinct outputs and
    the loop time."""
    ops, outputs = [], {}
    start = time.perf_counter()
    deadline = start + seconds
    i = first
    while True:
        idx = i % len(files)
        argv = [command[0], files[idx], *command[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = call(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed operation, not a crash of the run
                code = "exception"
                err.write(traceback.format_exc())
            t1 = time.perf_counter()
        text = out.getvalue()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        ops.append([idx, t1 - t0, code, digest])
        key = f"{idx}:{digest}"
        if key not in outputs:
            outputs[key] = {"stdout": text, "stderr": err.getvalue()}
        i += 1
        if (count is None and t1 >= deadline) or i - first == count:
            break
    return ops, outputs, time.perf_counter() - start


def probe() -> float:
    """Seconds from starting a fresh worker until it has imported setcons."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-I", os.path.abspath(__file__), "--probe"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        sys.exit(f"worker probe failed: {proc.stderr.strip()}")
    return float(proc.stdout) - start


def main():
    if "--probe" in sys.argv[1:]:
        print(repr(READY))
        return
    job = json.load(sys.stdin)
    files, command, seconds = job["files"], job["command"], job["seconds"]
    count = job.get("count")
    result = {"ready": READY}
    if job.get("trace_path") is None:
        blocks = 1 if count is not None else job.get("probes", 0) + 1
        ops, outputs, loop_s, probes = [], {}, 0.0, []
        for b in range(blocks):
            block_ops, block_outputs, block_s = closed_loop(  # block ends on schedule
                files, command, seconds * (b + 1) / blocks - loop_s, count, setcons.cli.main, len(ops))
            ops += block_ops
            outputs.update(block_outputs)
            loop_s += block_s
            if b < blocks - 1:
                probes.append(probe())
        result.update(ops=ops, outputs=outputs, loop_s=loop_s, probes=probes)
    else:
        # Untraced and traced blocks alternate over the same files, so that
        # a drift in the machine's speed moves both sides of the overhead.
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.Tracer()
        block = seconds / (2 * TRACE_BLOCKS)
        ops, traced, outputs, loop_s = [], [], {}, 0.0
        for _ in range(TRACE_BLOCKS):
            first = len(ops)
            block_ops, block_outputs, block_s = closed_loop(
                files, command, block, None, setcons.cli.main, first)
            uninstall = spans.install(tracer)
            try:
                traced_ops, traced_outputs, _ = closed_loop(
                    files, command, block, None, lambda argv: tracer.op(setcons.cli.main, argv), first)
            finally:
                uninstall()
            ops += block_ops
            traced += traced_ops
            loop_s += block_s
            outputs.update(block_outputs)
            outputs.update(traced_outputs)
        tracer.dump(job["trace_path"])
        result.update(ops=ops, outputs=outputs, loop_s=loop_s, traced_ops=traced,
                      summary=tracer.summary())
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
