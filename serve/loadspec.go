package serve

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ParseModelSpec parses one mnnserve -model value, name=source[,key=value...]
// (a bare source serves under its own name), into a load request. The
// source becomes Model; each key is the spec tag of a LoadRequest or
// LoadOptions field, its value parsed by the field's kind:
//
//   - int and bool fields by strconv (e.g. pool=4, lazy=true);
//   - string fields take the value as written (forward=cpu), and a field
//     tagged nonempty refuses an empty one;
//   - millisecond float64 fields take a Go duration (maxlatency=1001us);
//   - shape maps take input:AxBxC and the key may repeat (shape=data:1x3x64x64).
//
// LoadRequest.Config validates the values; a field tagged checked has each
// of its values validated by Config as it is parsed, so a later repeat of
// the key cannot hide a bad one.
func ParseModelSpec(spec string) (name string, req LoadRequest, err error) {
	parts := strings.Split(spec, ",")
	name, source := parts[0], parts[0]
	if n, s, ok := strings.Cut(parts[0], "="); ok {
		name, source = n, s
	}
	if name == "" || source == "" {
		return "", LoadRequest{}, errors.New("want name=source[,key=value...]")
	}
	req = LoadRequest{Model: source}
	for _, kv := range parts[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return "", LoadRequest{}, fmt.Errorf("option %q is not key=value", kv)
		}
		checked, err := setSpecKey(&req, key, val)
		if err == nil && checked {
			// The value alone must convert.
			probe := LoadRequest{Model: source}
			_, _ = setSpecKey(&probe, key, val) // cannot fail: it just set req's field
			if _, err = probe.Config(); err != nil {
				err = fmt.Errorf("%s=%q: %v", key, val, err)
			}
		}
		if err != nil {
			return "", LoadRequest{}, err
		}
	}
	return name, req, nil
}

// setSpecKey sets the field of req whose spec tag is key and reports
// whether the tag says checked.
func setSpecKey(req *LoadRequest, key, val string) (checked bool, err error) {
	var keys []string
	for _, v := range []reflect.Value{reflect.ValueOf(req).Elem(), reflect.ValueOf(&req.Options).Elem()} {
		for i := range v.NumField() {
			tag, opts, _ := strings.Cut(v.Type().Field(i).Tag.Get("spec"), ",")
			if tag == "" {
				continue
			}
			if tag == key {
				opt := strings.Split(opts, ",")
				if err := setSpecValue(v.Field(i), val, slices.Contains(opt, "nonempty")); err != nil {
					return false, fmt.Errorf("%s=%q: %v", key, val, err)
				}
				return slices.Contains(opt, "checked"), nil
			}
			keys = append(keys, tag)
		}
	}
	return false, fmt.Errorf("unknown option %q (want %s)", key, strings.Join(keys, ", "))
}

func setSpecValue(f reflect.Value, val string, nonempty bool) error {
	switch f.Kind() {
	case reflect.Int:
		n, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		f.SetInt(int64(n))
	case reflect.Bool:
		b, err := strconv.ParseBool(val)
		if err != nil {
			return err
		}
		f.SetBool(b)
	case reflect.String:
		if nonempty && val == "" {
			return errors.New("must not be empty")
		}
		f.SetString(val)
	case reflect.Float64:
		d, err := time.ParseDuration(val)
		if err != nil {
			return err
		}
		f.SetFloat(float64(d) / float64(time.Millisecond))
	case reflect.Map:
		input, dims, ok := strings.Cut(val, ":")
		if !ok {
			return errors.New("want input:AxBxC...")
		}
		var shape []int
		for _, d := range strings.Split(dims, "x") {
			n, err := strconv.Atoi(d)
			if err != nil {
				return err
			}
			shape = append(shape, n)
		}
		if f.IsNil() {
			f.Set(reflect.MakeMap(f.Type()))
		}
		f.SetMapIndex(reflect.ValueOf(input), reflect.ValueOf(shape))
	default:
		panic(fmt.Sprintf("serve: spec field of kind %v", f.Kind()))
	}
	return nil
}
