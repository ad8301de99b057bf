"""The superhyp functions a traced run wraps, with their derived counters.

Bytes and flops are computed from array shapes, not measured.
"""

from __future__ import annotations

import sys

import numpy as np

from superhyp import algebra, bessel, circle, cli, genmatrix, hyperbolic, verify
from tracer import Probe


def _nbytes(key):
    def counters(tracer, name, args, kwargs, result):
        tracer.count(name, key, result.nbytes)

    return counters


def _mat_exp_counts(tracer, name, args, kwargs, result):
    # same squaring rule as mat_exp: scale the 1-norm down to <= 0.5
    a = np.asarray(args[0] if args else kwargs["a"])
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm) + 1.0))
    matmuls = algebra.TAYLOR_ORDER + squarings
    tracer.count(name, "matmuls", matmuls)
    tracer.count(name, "gflop_computed", matmuls * 8.0 * a.shape[0] ** 3 / 1e9)


def _bessel_table_counts(tracer, name, args, kwargs, result):
    # the Miller pass computes orders 0..miller_start_order; x == 0 needs
    # no pass, and no workload uses the tiny-|x| series branch
    if result.x == 0:
        return
    start = bessel.miller_start_order(result.kmax, result.x)
    tracer.count(name, "recurrence_steps", start)
    tracer.count(name, "useful_orders", result.kmax + 1)
    tracer.count(name, "computed_orders", start + 1)


def _cases(tracer, name, args, kwargs, result):
    tracer.count(name, "cases", len(result.cases))


def _suite_label(suite, **kwargs):
    return f"verify.{suite}"


LIBRARY_PROBES = (
    Probe(algebra, "dft_matrix", "algebra.dft_matrix", _nbytes("bytes_computed")),
    Probe(algebra, "mat_exp", "algebra.mat_exp", _mat_exp_counts),
    Probe(algebra, "determinant", "algebra.determinant"),
    Probe(hyperbolic, "exp_circulant", "hyperbolic.exp_circulant", _nbytes("bytes_out")),
    Probe(hyperbolic, "c_series", "hyperbolic.c_series"),
    Probe(hyperbolic, "c_filter_complex", "hyperbolic.c_filter_complex", distinct=True),
    Probe(hyperbolic, "addition_residual", "hyperbolic.addition_residual"),
    Probe(hyperbolic, "mixed_product_residual", "hyperbolic.mixed_product_residual"),
    Probe(genmatrix, "generating_matrix", "genmatrix.generating_matrix", distinct=True),
    Probe(genmatrix, "trace_projection", "genmatrix.trace_projection"),
    Probe(genmatrix, "exponential_sum", "genmatrix.exponential_sum"),
    Probe(genmatrix, "bessel_comb_series", "genmatrix.bessel_comb_series"),
    Probe(bessel, "bessel_table", "bessel.bessel_table", _bessel_table_counts),
    Probe(bessel, "bessel_i", "bessel.bessel_i"),
    Probe(circle, "generating_operator", "circle.generating_operator"),
    Probe(circle, "build_lattice", "circle.build_lattice"),
    Probe(circle, "commutator_check", "circle.commutator_check"),
    Probe(verify, "run_suite", _suite_label, _cases),
)

# The CLI split used by the launcher: the subcommand handler (run time is
# its span minus the emit spans inside it) and the three emit steps.
CLI_PROBES = (
    Probe(cli, "cmd_eval", "cli.handler"),
    Probe(cli, "cmd_verify", "cli.handler"),
    Probe(cli, "cmd_table", "cli.handler"),
    Probe(verify.VerificationReport, "to_payload", "cli.emit"),
    Probe(cli, "_json_doc", "cli.emit"),
    Probe(cli, "_emit", "cli.emit"),
)


def namespaces():
    """Every loaded superhyp module, i.e. every place a probed function may be bound."""
    return [m for name, m in sys.modules.items() if name == "superhyp" or name.startswith("superhyp.")]
