"""Models rebuilt with their radial data in object arrays.

The constructors store an integer sequence as int64 when all its entries
lie below 2**63; the twin built here holds the same values as Python ints
and Fractions in object arrays, so that every view, verdict and byte of
output can be compared across the two storages.
"""

import numpy as np

from hardy_lab import RadialModel


def object_storage(model):
    """The same model with every stored sequence an object array of its values."""
    def objects(stored):
        return None if stored is None else np.array(stored.tolist(), dtype=object)
    return RadialModel(k_plus=objects(model._k_plus), k_minus=objects(model._k_minus),
                       vol=objects(model._vol), tail=model.tail, label=model.label)
