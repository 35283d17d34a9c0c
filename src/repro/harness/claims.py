"""The paper's §VI-B / §VII headline claims, computed from our runs.

Each claim is returned as (description, paper value, measured value,
holds?) where *holds* applies the claim's qualitative direction (who
wins), not the absolute number — our substrate is a from-scratch
simulator with stand-in kernels, so shapes are the reproducible part.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.session import SimulationSession
from .figures import _avg_speedup


@dataclass
class Claim:
    name: str
    paper: float
    measured: float
    holds: bool
    note: str = ""


def evaluate_claims(session: SimulationSession) -> list[Claim]:
    claims: list[Claim] = []

    def add(name, paper, measured, holds, note=""):
        claims.append(Claim(name, paper, measured, holds, note))

    # --- CCSI over CSMT (Fig. 14 averages) ---
    for nt, paper_ns, paper_as in ((2, 6.1, 8.7), (4, 3.5, 7.5)):
        ns = _avg_speedup(session, "CCSI NS", "CSMT", nt)
        as_ = _avg_speedup(session, "CCSI AS", "CSMT", nt)
        add(
            f"CCSI NS avg speedup over CSMT ({nt}T)",
            paper_ns,
            ns,
            ns > 0,
            "split-issue must help cluster-level merging",
        )
        add(
            f"CCSI AS avg speedup over CSMT ({nt}T)",
            paper_as,
            as_,
            as_ > 0 and as_ >= ns - 0.5,
            "AS should be at least as good as NS",
        )

    # --- COSI / OOSI over SMT (Fig. 15 averages) ---
    for nt, p in ((2, dict(cosi_ns=7.5, cosi_as=9.8, oosi_ns=8.2, oosi_as=13.0)),
                  (4, dict(cosi_ns=6.4, cosi_as=9.4, oosi_ns=7.9, oosi_as=15.7))):
        cosi_ns = _avg_speedup(session, "COSI NS", "SMT", nt)
        cosi_as = _avg_speedup(session, "COSI AS", "SMT", nt)
        oosi_ns = _avg_speedup(session, "OOSI NS", "SMT", nt)
        oosi_as = _avg_speedup(session, "OOSI AS", "SMT", nt)
        add(f"COSI NS avg speedup over SMT ({nt}T)", p["cosi_ns"], cosi_ns,
            cosi_ns > 0)
        add(f"COSI AS avg speedup over SMT ({nt}T)", p["cosi_as"], cosi_as,
            cosi_as > 0)
        add(f"OOSI NS avg speedup over SMT ({nt}T)", p["oosi_ns"], oosi_ns,
            oosi_ns > 0)
        add(f"OOSI AS avg speedup over SMT ({nt}T)", p["oosi_as"], oosi_as,
            oosi_as > 0)
        # COSI within a few percent of OOSI — the paper's core
        # cost/benefit argument (0.7-5.7% across configs)
        gap = oosi_as - cosi_as
        paper_gap = 2.7 if nt == 2 else 5.7
        add(
            f"OOSI AS - COSI AS gap ({nt}T, small means cluster-level "
            "split captures most of the benefit)",
            paper_gap,
            gap,
            gap < 10.0,
        )

    # --- Fig. 16: cluster-merge vs op-merge gap shrinks with split ---
    for nt, paper_csmt_gap, paper_ccsi_gap in ((2, None, None), (4, 27.0, 13.0)):
        smt = session.average_ipc("SMT", nt)
        csmt = session.average_ipc("CSMT", nt)
        ccsi = session.average_ipc("CCSI AS", nt)
        gap_before = 100.0 * (smt / csmt - 1.0)
        gap_after = 100.0 * (smt / ccsi - 1.0)
        if nt == 4:
            add(
                "SMT advantage over CSMT (4T, %)",
                paper_csmt_gap,
                gap_before,
                gap_before > 0,
            )
            add(
                "SMT advantage over CCSI AS (4T, %) — split narrows it",
                paper_ccsi_gap,
                gap_after,
                gap_after < gap_before,
            )
        else:
            add(
                "CCSI AS ~ SMT on 2T (paper: 'practically the same, in "
                "fact slightly better')",
                0.0,
                gap_after,
                gap_after < gap_before,
            )
    return claims


def render_claims(claims: list[Claim]) -> str:
    out = ["Paper claims vs measured (shape-level reproduction):", ""]
    for c in claims:
        status = "HOLDS " if c.holds else "DIFFERS"
        paper = f"{c.paper:6.1f}" if c.paper is not None else "   n/a"
        out.append(
            f"[{status}] {c.name}\n"
            f"          paper {paper}   measured {c.measured:6.1f}"
            + (f"   ({c.note})" if c.note else "")
        )
    return "\n".join(out)
