"""Output checks for the benchmark's result records.

A record is the JSON object perfbench/main.exe prints as its last line:
the workload's facts ("checks"), its failure counters ("failures"), the
number of operations attempted and its metrics.  `verify` judges it and
returns the list of violations; an empty list means the run was correct.
"""

import math

CONNS = 1024


def _fact_violations(workload, c):
    """Violations of the workload's output checks, from its facts."""
    v = []

    def need(cond, what):
        if not cond:
            v.append(what)

    def get(key):
        if key not in c:
            v.append("missing fact %s" % key)
            return None
        return c[key]

    if workload == "tcp-rx-ack":
        for side in ("conv", "ldlp"):
            p = side + "."
            need(get(p + "established") == CONNS, p + "established != %d" % CONNS)
            need(get(p + "mismatch_bytes") == 0, p + "delivered bytes differ from the sent stream")
            need(get(p + "undelivered_conns") == 0, p + "connections with undelivered bytes")
            need(get(p + "delivered_bytes") == get("expected_bytes"),
                 p + "delivered_bytes != expected_bytes")
            need(get(p + "buf_in_use") == 0, p + "mbuf pool buffers leaked")
            need(get(p + "msg_outstanding") == 0, p + "message pool records leaked")
            need(get(p + "latency_samples") == get("open_loop_frames"),
                 p + "open-loop frames without a latency sample")
            need((get(p + "wire_frames") or 0) > 0, p + "no frames on the wire")
        need((get("conv.frames") or 0) > 0, "no frames processed")
        need(get("conv.frames") == get("ldlp.frames"), "disciplines processed different frame counts")
        need(get("conv.wire_frames") == get("ldlp.wire_frames"),
             "LDLP and conventional sent different numbers of wire frames")
        need(get("conv.wire_digest") == get("ldlp.wire_digest"),
             "LDLP wire frames differ from conventional")
        need(get("tcp_drops") == 0, "Tcp_input dropped segments")
    elif workload == "q93b-storm":
        calls = get("calls")
        need((calls or 0) > 0, "no calls generated")
        for side in ("conv", "ldlp"):
            p = side + "."
            for k in ("setups_routed", "calls_connected", "calls_released"):
                need(get(p + k) == calls, "%s%s != calls" % (p, k))
            need(get(p + "protocol_errors") == 0, p + "protocol errors")
            need(get(p + "rejected") == 0, p + "rejected setups")
            need(get(p + "active_calls_end") == 0, p + "calls still active at the end")
            need(get(p + "odd_tx") == 0, p + "unexpected messages at the down sink")
            need(get(p + "buf_in_use") == 0, p + "mbuf pool buffers leaked")
            need(get(p + "latency_samples") == get("open_loop_setups"),
                 p + "open-loop SETUPs without a CONNECT")
        need(get("conv.rx") == get("ldlp.rx"), "disciplines received different message counts")
        need(get("conv.tx_frames") == get("ldlp.tx_frames"),
             "LDLP and conventional transmitted different frame counts")
        need(get("conv.tx_digest") == get("ldlp.tx_digest"),
             "LDLP transmitted frames differ from conventional")
    elif workload == "fig5-model":
        for side in ("conv", "ldlp"):
            p = side + "."
            need((get(p + "requests") or 0) > 0, p + "no requests")
            need(get(p + "repeat_mismatches") == 0,
                 p + "modeled results differ between repetitions")
        ci, li = get("conv.imisses_per_msg"), get("ldlp.imisses_per_msg")
        need(isinstance(ci, (int, float)) and isinstance(li, (int, float)) and li < ci,
             "LDLP I-misses/msg not below conventional")
        need(isinstance(get("results_digest"), str), "no results digest")
    else:
        v.append("unknown workload %r" % workload)
    return v


def verify(record, expected_metrics, positive=False):
    """Judge a record.  `expected_metrics` maps each metric name the run must
    report to its unit; with `positive` each must also be above zero.
    Returns (violations, failed): every problem found, and the
    failed-operation count (failure counters plus violated output
    checks)."""
    v = []
    failures = record.get("failures")
    checks = record.get("checks")
    metrics = record.get("metrics")
    attempted = record.get("attempted")
    if not isinstance(failures, dict) or not isinstance(checks, dict) or not isinstance(metrics, dict):
        return (["malformed record"], 1)
    if not isinstance(attempted, int) or attempted < 1:
        v.append("attempted must be a positive integer")
    host = record.get("host", {})
    if host.get("ldlp_metrics") or host.get("ldlp_check"):
        v.append("LDLP_METRICS or LDLP_CHECK was on")
    counted = 0
    for name, n in failures.items():
        if not isinstance(n, int) or n < 0:
            v.append("bad failure counter %s" % name)
        elif n > 0:
            counted += n
            v.append("%d %s" % (n, name))
    facts = _fact_violations(record.get("workload"), checks)
    v.extend(facts)
    for name, unit in expected_metrics.items():
        m = metrics.get(name)
        if not isinstance(m, dict):
            v.append("metric %s missing" % name)
            continue
        if m.get("unit") != unit:
            v.append("metric %s has unit %r, expected %r" % (name, m.get("unit"), unit))
        val = m.get("value")
        if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
            v.append("metric %s is not a finite number" % name)
        elif positive and val <= 0:
            v.append("metric %s is not positive" % name)
    return (v, counted + len(facts))
