"""Fig. 15 bench: COSI and OOSI speedups over SMT."""

from repro.harness.figures import fig15, render_speedup_table

COLS = ["COSI NS", "COSI AS", "OOSI NS", "OOSI AS"]


def test_fig15_split_over_smt(benchmark, session, capsys):
    rows = benchmark.pedantic(
        fig15, args=(session,), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print("Fig. 15: COSI/OOSI speedup over SMT (%)")
        print(render_speedup_table(rows, COLS))
    for r in rows:
        if r["workload"] == "avg":
            for c in COLS:
                benchmark.extra_info[
                    f"{r['threads']}T_{c.replace(' ', '_')}_avg"
                ] = round(r[c], 2)
            # paper's ordering: OOSI AS is the best split configuration
            assert r["OOSI AS"] >= r["COSI AS"] - 1.0
