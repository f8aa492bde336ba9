import pytest

from subspace_est.matio import read_matrix


@pytest.mark.parametrize("text, message", [
    ("1 2\n1,2\n", "bad matrix header '1 2'"),
    ("# 2\n1,2\n", "bad matrix header '# 2'"),
    ("# 2 2\n1,2\n", r"header says 2 x 2, data is \(1, 2\)"),
    ("# 1 3\n1,2\n", r"header says 1 x 3, data is \(1, 2\)"),
    # checked before numpy reads the body, so no empty-input warning leaks
    ("# 2 2\n", "header says 2 x 2, data is empty"),
    ("# 2 2\n\n  \n", "header says 2 x 2, data is empty"),
    ("# 2 2\n# nothing here\n", "header says 2 x 2, data is empty"),
    ("# 0 0\n", "header says 0 x 0, not a matrix"),
    ("# 0 2\n1,2\n", "header says 0 x 2, not a matrix"),
])
def test_read_matrix_refusals(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_matrix(path)
