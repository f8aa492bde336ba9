import pathlib

import subspace_est
from subspace_est import estimators


def test_every_export_resolves():
    missing = [name for name in subspace_est.__all__
               if not hasattr(subspace_est, name)]
    assert not missing


def test_only_models_branches_on_family():
    # estimators work on matrices alone; models owns every family rule
    assert not hasattr(estimators, "models")
    package = pathlib.Path(subspace_est.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        if path.name != "models.py" and ("family ==" in text or "family in (" in text):
            offenders.append(path.name)
    assert not offenders
