"""The pooled storage engine reproduces the golden paper payload.

This module once compared the pooled engine with the object backend; the
object backend is gone and the pooled engine is the package's only
storage.  What stays is the golden check on the pooled storage itself:
on both gate-application paths, ``tests/data/golden_paper.json`` is
reproduced byte for byte — and reproduced again by a second, fresh set of
packages in the same process, so no pool, table or cache state leaks from
one package into the numbers of the next.
"""

from __future__ import annotations

import pytest

from tests.test_paper_examples_golden import (
    GOLDEN_PATH,
    _serialize,
    compute_payload,
)


@pytest.mark.parametrize("use_apply_kernels", [True, False],
                         ids=["pooled-apply-kernels", "pooled-matrix-path"])
def test_golden_payload_reproduced_by_both_backends(use_apply_kernels):
    """Two independent executions on the pooled storage, one truth."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = handle.read()
    assert _serialize(compute_payload(use_apply_kernels)) == golden
    assert _serialize(compute_payload(use_apply_kernels)) == golden
