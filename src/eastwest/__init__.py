"""Cost-sensitive decision trees over propositionalized train descriptions.

Pipeline: parse ground Prolog train facts, expand them into a boolean
feature space with size-complexity costs, search bias space with a genetic
algorithm wrapping a bias-adjustable C4.5-style learner, and emit the best
tree as a logic program scored by the same size metric.
"""
