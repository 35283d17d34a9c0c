"""Fig. 14 bench: CCSI speedup over CSMT, {2T,4T} x {NS,AS}."""

from repro.harness.figures import fig14, render_speedup_table


def test_fig14_ccsi_over_csmt(benchmark, session, capsys):
    rows = benchmark.pedantic(
        fig14, args=(session,), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print("Fig. 14: CCSI speedup over CSMT (%)")
        print(render_speedup_table(rows, ["NS", "AS"]))
    for r in rows:
        if r["workload"] == "avg":
            benchmark.extra_info[f"{r['threads']}T_NS_avg"] = round(r["NS"], 2)
            benchmark.extra_info[f"{r['threads']}T_AS_avg"] = round(r["AS"], 2)
            # the paper's direction: split-issue speeds up CSMT on average
            assert r["AS"] > -0.5
