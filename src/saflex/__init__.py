"""saflex: validation-guided reweighting and relabeling of augmented samples.

Each training iteration scores every augmented sample's candidate labels
by how well a descent step on them aligns with the validation gradient,
then assigns soft labels and keep-weights in closed form before the
parameter update. The package exposes its submodules only (`saflex.nn`,
`saflex.losses`, `saflex.data`, ...); import names from them.
"""
