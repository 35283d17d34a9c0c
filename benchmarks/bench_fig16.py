"""Fig. 16 bench: absolute average IPC of all eight MT configurations."""

from repro.harness.figures import fig16, render_fig16


def test_fig16_absolute_ipc(benchmark, session, capsys):
    rows = benchmark.pedantic(
        fig16, args=(session,), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(render_fig16(rows))
    ipc = {(r["threads"], r["policy"]): r["ipc"] for r in rows}
    for nt in (2, 4):
        for pol in ("CSMT", "CCSI NS", "CCSI AS", "SMT", "COSI NS",
                    "COSI AS", "OOSI NS", "OOSI AS"):
            benchmark.extra_info[f"{nt}T_{pol.replace(' ', '_')}"] = round(
                ipc[(nt, pol)], 3
            )
        # paper shapes: op-level merging beats cluster-level merging,
        # and split narrows the gap
        assert ipc[(nt, "SMT")] > ipc[(nt, "CSMT")] * 0.98
        gap_before = ipc[(nt, "SMT")] / ipc[(nt, "CSMT")]
        gap_after = ipc[(nt, "SMT")] / ipc[(nt, "CCSI AS")]
        assert gap_after <= gap_before + 0.02
