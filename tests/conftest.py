"""Run the tests in a seeded random order when ``DEQE_TEST_ORDER_SEED`` is
set, so a test that leans on another's side effects shows:

    DEQE_TEST_ORDER_SEED=20261020 python -m pytest -q
"""

import os
import random


def pytest_collection_modifyitems(config, items):
    seed = os.environ.get("DEQE_TEST_ORDER_SEED")
    if seed is not None:
        random.Random(seed).shuffle(items)
