import subspace_est


def test_every_export_resolves():
    missing = [name for name in subspace_est.__all__
               if not hasattr(subspace_est, name)]
    assert not missing
