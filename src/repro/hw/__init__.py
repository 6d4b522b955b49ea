"""Hardware component models of the RAID-II prototype.

Every component the paper measures is modelled here: disk drives
(mechanics plus a flat byte store), SCSI strings, Interphase Cougar
controllers, VME links, the XBUS crossbar with interleaved memory
banks, the parity engine, HIPPI source/destination ports and Ethernet.

All calibration constants live in :mod:`repro.hw.specs` with notes on
which paper sentence or measurement each was fitted to.
"""

from repro.hw.cougar import CougarController
from repro.hw.disk import DiskDrive
from repro.hw.ethernet import Ethernet
from repro.hw.hippi import HippiPort
from repro.hw.parity import ParityEngine
from repro.hw.scsi import ScsiString
from repro.hw.specs import (
    COUGAR_SPEC,
    ETHERNET_SPEC,
    HIPPI_SPEC,
    IBM_0661,
    SEAGATE_WREN_IV,
    VME_CONTROL_PORT_SPEC,
    VME_DATA_PORT_SPEC,
    XBUS_SPEC,
    CougarSpec,
    DiskSpec,
    EthernetSpec,
    HippiSpec,
    VmePortSpec,
    XbusSpec,
)
from repro.hw.vme import VmePort
from repro.hw.xbus_board import XbusBoard
from repro.hw.xbus_memory import XbusMemory

__all__ = [
    "COUGAR_SPEC",
    "CougarController",
    "CougarSpec",
    "DiskDrive",
    "DiskSpec",
    "ETHERNET_SPEC",
    "Ethernet",
    "EthernetSpec",
    "HIPPI_SPEC",
    "HippiPort",
    "HippiSpec",
    "IBM_0661",
    "ParityEngine",
    "ScsiString",
    "SEAGATE_WREN_IV",
    "VME_CONTROL_PORT_SPEC",
    "VME_DATA_PORT_SPEC",
    "VmePort",
    "VmePortSpec",
    "XBUS_SPEC",
    "XbusBoard",
    "XbusMemory",
    "XbusSpec",
]
