from pathlib import Path

import pytest

from hlk import IntMatrix

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# 3x4 linking matrix of fixtures/worked_example.hlk; divisor chain 1 | 2 | 4.
WORKED_ROWS = [
    [-1, -1, 0, 2],
    [1, -3, -2, 0],
    [0, 0, 2, -2],
]


def identity(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def worked_matrix() -> IntMatrix:
    return IntMatrix.from_rows(WORKED_ROWS)
