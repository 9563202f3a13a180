import re
import subprocess
import sys

import pytest

from colorproof.graphs import extend_with_gadgets, make_graph


@pytest.fixture(scope="session")
def k3():
    return make_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture(scope="session")
def k4():
    return make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.fixture(scope="session")
def c5():
    return make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


@pytest.fixture(scope="session")
def path3():
    return make_graph(3, [(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def ext_path3(path3):
    return extend_with_gadgets(path3)


@pytest.fixture
def spawn_prover():
    """Starts `colorproof serve-prover` subprocesses; each call returns the new prover's address.

    Every process started is killed and waited for when the test ends.
    """
    procs = []

    def spawn(instance_file, role: str, shared_seed: int, delay_ms: float = 0.0) -> tuple[str, int]:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "colorproof", "serve-prover",
                "--role", role,
                "--graph", str(instance_file),
                "--shared-seed", str(shared_seed),
                "--listen", "127.0.0.1:0",
                "--delay-ms", str(delay_ms),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        procs.append(proc)
        line = proc.stdout.readline()
        match = re.search(r"listen=127\.0\.0\.1:(\d+)", line)
        assert match, f"prover did not announce a port: {line!r}"
        return "127.0.0.1", int(match.group(1))

    try:
        yield spawn
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=5)
            proc.stdout.close()
