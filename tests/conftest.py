import dataclasses

import pytest

from cavforge import _kernels, align, physics, pipeline
from cavforge.layout import default_layout, validate_layout
from cavforge.pipeline import run_construction


@pytest.fixture(scope="session")
def layout():
    return validate_layout(default_layout())


@pytest.fixture(scope="session")
def built(layout):
    return run_construction(layout, 42)


@pytest.fixture
def state(built):
    # Recovery routines rebind state.ws and append log entries; every test
    # gets its own shell so the session-scoped build stays pristine.
    return dataclasses.replace(built,
                               reference_frames=dict(built.reference_frames),
                               log=list(built.log))


@pytest.fixture
def frames(monkeypatch):
    """The camera ids of every frame ``align`` and ``pipeline`` render."""
    rendered = []

    def counted(ws, camera_id):
        rendered.append(camera_id)
        return physics.camera_view(ws, camera_id)

    for module in (align, pipeline):
        monkeypatch.setattr(module, "camera_view", counted)
    return rendered


@pytest.fixture
def drawn(monkeypatch):
    """The shape of every array ``render_spot`` draws a spot into: a whole
    frame, or the window of one that ``beam_stats`` and ``centroid`` read."""
    shapes = []
    render_spot = _kernels.render_spot

    def recorded(img, row, col):
        shapes.append(img.shape)
        return render_spot(img, row, col)

    monkeypatch.setattr(_kernels, "render_spot", recorded)
    return shapes
