"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` sub-package, lists the names in ``__all__`` with the
first line of each docstring, and writes a flat Markdown reference.
Re-run after API changes: ``python scripts/generate_api_docs.py``;
``tests/test_api_docs.py`` fails while the committed file is stale.
"""

import importlib
import inspect
import pathlib

PACKAGES = [
    "repro.autodiff",
    "repro.nn",
    "repro.optim",
    "repro.torq",
    "repro.lower",
    "repro.maxwell",
    "repro.solvers",
    "repro.core",
    "repro.pde",
    "repro.experiments",
    "repro.report",
    "repro.obs",
    "repro.resilience",
]

# Packages whose full module docstring doubles as a usage guide; include it
# verbatim instead of just the first line.
FULL_INTRO = {"repro.obs", "repro.resilience", "repro.lower"}

# Optional human-readable section titles.
TITLES = {"repro.obs": "Observability",
          "repro.resilience": "Resilience & checkpointing",
          "repro.lower": "Lowering & precision tiers"}

# Guide sections emitted right after their parent package: submodules whose
# full docstring is a usage guide in its own right.
GUIDE_SECTIONS = {
    "repro.autodiff": [
        ("Tape compilation", "repro.autodiff.tape"),
    ],
    "repro.torq": [
        ("Circuit compilation", "repro.torq.compile"),
        ("Gradient backends", "repro.torq.adjoint"),
    ],
    "repro.lower": [
        ("Error budgets", "repro.lower.budget"),
        ("Memory planning", "repro.lower.memplan"),
        ("In-place planned execution", "repro.lower.inplace"),
    ],
}


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    line = doc.splitlines()[0].strip()
    return line


def render() -> str:
    """The full text of ``docs/API.md``."""
    out = ["# API reference", "",
           "Generated by `scripts/generate_api_docs.py`; one row per name in",
           "each sub-package's `__all__`.", ""]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        title = TITLES.get(package_name)
        if title:
            out.append(f"## {title} (`{package_name}`)")
        else:
            out.append(f"## `{package_name}`")
        out.append("")
        if package_name in FULL_INTRO:
            module_doc = inspect.getdoc(module) or ""
        else:
            module_doc = first_line(module)
        if module_doc:
            out.append(module_doc)
            out.append("")
        names = getattr(module, "__all__", None)
        if not names:
            continue
        out.append("| name | kind | summary |")
        out.append("|---|---|---|")
        for name in names:
            obj = getattr(module, name, None)
            if obj is None:
                continue
            if inspect.isclass(obj):
                kind = "class"
            elif inspect.isfunction(obj) or inspect.isbuiltin(obj):
                kind = "function"
            elif inspect.ismodule(obj):
                kind = "module"
            else:
                kind = type(obj).__name__
            summary = first_line(obj).replace("|", "\\|")
            out.append(f"| `{name}` | {kind} | {summary} |")
        out.append("")
        for section_title, submodule_name in GUIDE_SECTIONS.get(package_name, []):
            submodule = importlib.import_module(submodule_name)
            out.append(f"### {section_title} (`{submodule_name}`)")
            out.append("")
            out.append(inspect.getdoc(submodule) or "")
            out.append("")
    return "\n".join(out) + "\n"


def main() -> None:
    text = render()
    path = pathlib.Path(__file__).parent.parent / "docs" / "API.md"
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    print(f"wrote {path} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
