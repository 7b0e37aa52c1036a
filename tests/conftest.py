import importlib.util
from pathlib import Path

import pytest

from anomalion.anomaly import build_truncation_1d, build_truncation_2d
from anomalion.circuits import CircuitAction, builtin_action, concat
from anomalion.lattice import Window


@pytest.fixture(scope="session")
def window12():
    return Window.centered(12, 12, margin=3)


@pytest.fixture(scope="session")
def chain12():
    return Window.chain(12, margin=3)


@pytest.fixture(scope="session")
def digest_script():
    """scripts/report_digests.py as a module, for its action configs."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture(scope="session")
def ccz_action(window12):
    return builtin_action("ccz_x_2d", window12)


@pytest.fixture(scope="session")
def ccz_data(ccz_action):
    return build_truncation_2d(ccz_action)


@pytest.fixture(scope="session")
def lg_action(chain12):
    return builtin_action("levin_gu_1d", chain12)


@pytest.fixture(scope="session")
def lg_data(lg_action):
    return build_truncation_1d(lg_action)


@pytest.fixture(scope="session")
def conjugate():
    """rho'(g) = W^-1 rho(g) W for g != e: W applied first, then rho(g),
    then W^-1; the identity keeps its empty circuit."""

    def conjugated(action: CircuitAction, w) -> CircuitAction:
        e = action.group.id
        assign = tuple(
            c if g == e else concat(concat(w, c), w.inverse()) for g, c in enumerate(action.assign)
        )
        return CircuitAction(action.group, assign, action.window, f"{action.name}^W")

    return conjugated
