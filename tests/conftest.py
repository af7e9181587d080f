import numpy as np
import pytest

from eastwest.cli import data_path
from eastwest.features import build_feature_table, evaluate_features, feature_index
from eastwest.trains import load_trains
from eastwest.tree import EAST, WEST, Leaf, Node


@pytest.fixture(scope="session")
def full_table():
    return build_feature_table("full")


@pytest.fixture(scope="session")
def trains20():
    return load_trains(data_path("trains20.pl"))


@pytest.fixture(scope="session")
def trains10():
    return load_trains(data_path("trains10.pl"))


@pytest.fixture(scope="session")
def matrix20(trains20, full_table):
    return evaluate_features(trains20, full_table)


@pytest.fixture(scope="session")
def costs20(full_table):
    return np.array([s.cost for s in full_table])


@pytest.fixture(scope="session")
def reference_tree(full_table):
    """The reference hand tree: short_closed, then train_4 / u_shaped / train_circle."""
    f = lambda name: feature_index(full_table, name)
    east, west = Leaf(EAST), Leaf(WEST)
    return Node(
        f("short_closed"),
        east,
        Node(
            f("train_4"),
            Node(f("u_shaped"), Node(f("train_circle"), east, west), west),
            west,
        ),
    )
