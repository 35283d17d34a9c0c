"""Fig. 13a bench: per-benchmark single-thread IPCr/IPCp table."""

from repro.harness.figures import fig13a, render_fig13a


def test_fig13a_table(benchmark, session, capsys):
    rows = benchmark.pedantic(
        fig13a, args=(session,), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(render_fig13a(rows))
    for r in rows:
        benchmark.extra_info[f"{r['benchmark']}_ipcr"] = round(r["ipcr"], 2)
        benchmark.extra_info[f"{r['benchmark']}_ipcp"] = round(r["ipcp"], 2)
    # structural sanity: classes ordered
    by_class = {}
    from repro.kernels import get_meta

    for r in rows:
        by_class.setdefault(get_meta(r["benchmark"]).ilp_class, []).append(
            r["ipcp"]
        )
    mean = lambda v: sum(v) / len(v)
    assert mean(by_class["l"]) < mean(by_class["m"]) < mean(by_class["h"])
