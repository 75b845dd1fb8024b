"""Tensor payloads of the wire protocol and walks over arbitrary dicts.

:class:`TensorPayload` is one ndarray encoded for the wire: ``binary``
(the raw buffer itself, zero copy both ways) or ``base64`` (raw
little-endian bytes in a JSON string).  Both round-trip every dtype
bit-exactly; any other encoding is a typed ``bad_schema`` error.

The deep walk at the bottom (:func:`rewrite_binary_tensors`) finds binary
tensors at any depth of any dict.  The serving path never calls it: it
visits only the tensor slots its op declares
(:func:`repro.api.envelopes.rewrite_slot_tensors`).
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from typing import Any, Dict, Tuple

import numpy as np

from repro.api.errors import BadSchemaError

#: Dtypes a tensor payload may carry, mapped to their little-endian codes.
TENSOR_DTYPES: Dict[str, str] = {
    "float64": "<f8",
    "float32": "<f4",
    "float16": "<f2",
    "int64": "<i8",
    "int32": "<i4",
    "int8": "|i1",
}

#: dtype name -> (wire dtype, native dtype, whether decoding must byteswap).
_WIRE_DTYPES = {
    name: (np.dtype(code), np.dtype(name), np.dtype(code) != np.dtype(name))
    for name, code in TENSOR_DTYPES.items()
}

#: Native ``np.dtype`` -> (name, wire dtype), so encoding never asks numpy
#: for a dtype's name.
_DTYPE_NAMES = {native: (name, wire) for name, (wire, native, _) in _WIRE_DTYPES.items()}

#: Tensor data encodings.  ``binary`` travels only in binary frames or
#: in-process.
TENSOR_ENCODINGS = ("base64", "binary")

#: Types a ``binary`` tensor's data may be.  JSON yields only str/list
#: data, so a forged ``encoding: "binary"`` in a JSON frame fails closed.
_BINARY_DATA_TYPES = (bytes, bytearray, memoryview, np.ndarray)


def _new(cls, values: Dict[str, Any]):
    """A frozen dataclass instance from validated values, without running
    the generated ``__init__`` (one ``object.__setattr__`` per field)."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


def _binary_data_view(data: Any, where: str = "tensor") -> memoryview:
    """A flat byte view over a ``binary`` tensor's data, validated.

    The decoder hands out memoryview slices of the frame body; in-process
    callers keep the ndarray.  Anything not
    a contiguous buffer raises :class:`BadSchemaError`.
    """
    if type(data) is memoryview and data.format == "B" and data.c_contiguous:
        return data  # a frame-body slice is already a flat byte view
    if isinstance(data, np.ndarray) and not data.flags.c_contiguous:
        raise BadSchemaError(f"{where} binary data must be C-contiguous")
    if not isinstance(data, _BINARY_DATA_TYPES):
        raise BadSchemaError(
            f"{where} binary data has type {type(data).__name__}; expected a "
            f"raw buffer (bytes, bytearray, memoryview or ndarray)"
        )
    try:
        view = memoryview(data)
        return memoryview(b"") if view.nbytes == 0 else view.cast("B")
    except TypeError as error:
        raise BadSchemaError(
            f"{where} binary data is not a contiguous buffer: {error}"
        ) from error


@dataclass(frozen=True)
class TensorPayload:
    """One ndarray encoded for the wire (see the module docstring)."""

    dtype: str
    shape: Tuple[int, ...]
    encoding: str
    data: Any

    @classmethod
    def from_array(cls, array: np.ndarray, encoding: str = "base64") -> "TensorPayload":
        """Encode an ndarray (dtype preserved when supported, else float64)."""
        arr = np.asarray(array)
        known = _DTYPE_NAMES.get(arr.dtype)
        if known is None:  # non-native byte order, or an unsupported dtype
            name = arr.dtype.name
            if name not in TENSOR_DTYPES:
                arr, name = arr.astype(np.float64), "float64"
            known = (name, _WIRE_DTYPES[name][0])
        name, wire_dtype = known
        if encoding == "binary":
            # No copy when the array is already contiguous little-endian.
            data: Any = np.ascontiguousarray(arr, dtype=wire_dtype)
        elif encoding == "base64":
            contig = np.ascontiguousarray(arr, dtype=wire_dtype)
            data = base64.b64encode(contig.data).decode("ascii")
        else:
            raise ValueError(
                f"unknown tensor encoding {encoding!r}; expected one of {TENSOR_ENCODINGS}"
            )
        return _new(cls, {"dtype": name, "shape": arr.shape, "encoding": encoding, "data": data})

    def to_array(self) -> np.ndarray:
        """Decode back into an ndarray.

        ``base64`` gives a fresh writable array; ``binary`` gives a
        zero-copy view over the received buffer (read-only over a frame
        body).  A shape numpy cannot represent raises
        :class:`BadSchemaError`.
        """
        wire_dtype, native, swap = _WIRE_DTYPES[self.dtype]
        shape = self.shape
        needed = math.prod(shape) * wire_dtype.itemsize  # exact Python ints
        try:
            if self.encoding == "binary":
                view = _binary_data_view(self.data)
                if view.nbytes != needed:
                    raise BadSchemaError(
                        f"binary tensor payload carries {view.nbytes} bytes but shape "
                        f"{shape} with dtype {self.dtype} needs {needed}"
                    )
                arr = np.frombuffer(view, dtype=wire_dtype)
                if len(shape) != 1:
                    arr = arr.reshape(shape)
                return arr.astype(native) if swap else arr  # big-endian host: copy
            try:
                raw = base64.b64decode(self.data, validate=True)
            except (ValueError, TypeError) as error:
                raise BadSchemaError(
                    f"tensor payload data is not valid base64: {error}"
                ) from error
            if len(raw) != needed:
                raise BadSchemaError(
                    f"tensor payload carries {len(raw)} bytes but shape {shape} "
                    f"with dtype {self.dtype} needs {needed}"
                )
            arr = np.frombuffer(raw, dtype=wire_dtype).reshape(shape)
        except ValueError as error:  # e.g. zero-size, but other dims overflow
            raise BadSchemaError(
                f"tensor shape {tuple(shape)} is not representable: {error}"
            ) from error
        return arr.astype(native, copy=True)  # writable, native-endian

    @property
    def num_elements(self) -> int:
        """Number of scalar elements the payload describes (exact)."""
        return math.prod(self.shape)

    def to_wire(self) -> Dict[str, Any]:
        """The JSON-safe dictionary form."""
        return {
            "dtype": self.dtype,
            "shape": list(self.shape),
            "encoding": self.encoding,
            "data": self.data,
        }

    @classmethod
    def from_wire(cls, payload: Any, where: str = "tensor") -> "TensorPayload":
        """Validate and rebuild a payload from its wire form."""
        if not isinstance(payload, dict):
            raise BadSchemaError(f"{where} must be an object, not {type(payload).__name__}")
        try:
            dtype, shape = payload["dtype"], payload["shape"]
            encoding, data = payload["encoding"], payload["data"]
        except KeyError as error:
            raise BadSchemaError(
                f"{where} envelope is missing required field {error.args[0]!r}"
            ) from None
        if not isinstance(dtype, str) or dtype not in TENSOR_DTYPES:
            raise BadSchemaError(
                f"{where} dtype {dtype!r} is not supported; expected one of "
                f"{sorted(TENSOR_DTYPES)}"
            )
        if not isinstance(shape, list):
            raise BadSchemaError(f"{where} shape must be a list of non-negative integers")
        for size in shape:
            if type(size) is not int or size < 0:
                raise BadSchemaError(f"{where} shape must be a list of non-negative integers")
        if encoding == "binary":
            _binary_data_view(data, where)
        elif encoding == "base64":
            if not isinstance(data, str):
                raise BadSchemaError(f"{where} base64 data must be a string")
        else:
            raise BadSchemaError(
                f"{where} encoding {encoding!r} is not supported; expected one of "
                f"{TENSOR_ENCODINGS}"
            )
        return _new(
            cls, {"dtype": dtype, "shape": tuple(shape), "encoding": encoding, "data": data}
        )


def is_binary_tensor_dict(obj: Any) -> bool:
    """Whether ``obj`` is the wire form of a ``binary``-encoded tensor."""
    return (
        isinstance(obj, dict)
        and obj.get("encoding") == "binary"
        and "dtype" in obj
        and "shape" in obj
        and "data" in obj
    )


def _walk(payload: Any, match, rewrite) -> Any:
    """Copy-on-write deep rewrite of every dict ``match`` accepts."""
    if isinstance(payload, dict):
        if match(payload):
            return rewrite(payload)
        out = None
        for key, value in payload.items():
            new_value = _walk(value, match, rewrite)
            if new_value is not value:
                if out is None:
                    out = dict(payload)
                out[key] = new_value
        return payload if out is None else out
    if isinstance(payload, list):
        out = None
        for index, item in enumerate(payload):
            new_item = _walk(item, match, rewrite)
            if new_item is not item:
                if out is None:
                    out = list(payload)
                out[index] = new_item
        return payload if out is None else out
    return payload


def rewrite_binary_tensors(payload: Any, rewrite) -> Any:
    """Copy-on-write deep rewrite of every binary tensor dict, at any depth."""
    return _walk(payload, is_binary_tensor_dict, rewrite)

