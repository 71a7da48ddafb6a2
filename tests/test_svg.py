"""SVG line charts: input validation."""

import pytest

from credal.errors import CredalError
from credal.svg import write_line_chart


@pytest.mark.parametrize("xs, series", [
    ([], {"y": []}),
    ([], {"y": [1.0]}),
    ([0.0, 1.0], {"y": []}),
    ([0.0, 1.0], {}),
])
def test_empty_series_raise_a_typed_error(tmp_path, xs, series):
    path = tmp_path / "chart.svg"
    with pytest.raises(CredalError):
        write_line_chart(path, xs, series)
    assert not path.exists()


def test_one_point_charts(tmp_path):
    text = write_line_chart(tmp_path / "chart.svg", [0.5], {"y": [2.0]}).read_text()
    assert text.startswith("<svg xmlns=") and text.rstrip().endswith("</svg>")
