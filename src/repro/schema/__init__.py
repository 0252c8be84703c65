"""Service schemas: relations, access methods, constraints."""

from .access import AccessMethod
from .relation import Relation
from .schema import QuerySchemaError, Schema, SchemaError

__all__ = [
    "AccessMethod", "QuerySchemaError", "Relation", "Schema", "SchemaError",
]
