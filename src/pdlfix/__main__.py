"""``python -m pdlfix`` runs the ``pdlfix`` command."""
from .cli import console

console()
